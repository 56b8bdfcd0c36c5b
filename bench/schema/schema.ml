module Json = Rcoe_obs.Json

type rule = Exact | Wall | Speedup | Info

type value =
  | Int of int
  | Secs of float
  | Ratio of float
  | Share of float
  | Float of float
  | Flag of bool
  | Text of string
  | Rows of t list

and field = { path : string; rule : rule; col : string option; value : value }
and t = { key_name : string; key : string; fields : field list }

let row key fields = { key_name = "name"; key; fields }
let sub key fields = { key_name = "label"; key; fields }
let exact ?col path n = { path; rule = Exact; col; value = Int n }
let wall ?col path s = { path; rule = Wall; col; value = Secs s }
let speedup ?col path r = { path; rule = Speedup; col; value = Ratio r }
let info ?col path value = { path; rule = Info; col; value }
let key r = r.key
let get r path = (List.find (fun f -> f.path = path) r.fields).value
let int r path = match get r path with Int n -> n | _ -> raise Not_found

let num r path =
  match get r path with
  | Secs f | Ratio f | Share f | Float f -> f
  | _ -> raise Not_found

let flag r path = match get r path with Flag b -> b | _ -> raise Not_found
let rows r path = match get r path with Rows l -> l | _ -> raise Not_found

let rec json = function
  | Int n -> Json.Int n
  | Secs f | Ratio f | Share f | Float f -> Json.Float f
  | Flag b -> Json.Bool b
  | Text s -> Json.String s
  | Rows l -> to_json l

(* Dotted paths become nested objects, each placed where its first
   field appears. *)
and nest = function
  | [] -> []
  | ([ k ], v) :: rest -> (k, v) :: nest rest
  | (k :: _, _) :: _ as members ->
      let inner, rest =
        List.partition (fun (p, _) -> List.hd p = k) members
      in
      (k, Json.Obj (nest (List.map (fun (p, v) -> (List.tl p, v)) inner)))
      :: nest rest
  | ([], _) :: _ -> invalid_arg "Schema: empty field path"

and to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           ((r.key_name, Json.String r.key)
           :: nest
                (List.map
                   (fun f -> (String.split_on_char '.' f.path, json f.value))
                   r.fields)))
       rows)

let cell = function
  | Int n -> string_of_int n
  | Secs s -> Printf.sprintf "%.4fs" s
  | Ratio r -> Printf.sprintf "%.2fx" r
  | Share s -> Printf.sprintf "%+.2f%%" (100. *. s)
  | Float f -> Printf.sprintf "%.2f" f
  | Flag b -> if b then "yes" else "no"
  | Text s -> s
  | Rows _ -> ""

let print title rows =
  let rec lines prefix r =
    let cells =
      List.filter_map
        (fun f -> Option.map (fun c -> (c, cell f.value)) f.col)
        r.fields
    in
    let name = prefix ^ r.key in
    (name, cells)
    :: List.concat_map
         (fun f ->
           match f.value with
           | Rows l -> List.concat_map (lines (name ^ " ")) l
           | _ -> [])
         r.fields
  in
  let lines = List.concat_map (lines "") rows in
  (* Columns in order of first appearance, widest line first, so a
     row's few columns fall in among its sub-rows' many. *)
  let headers =
    List.fold_left
      (fun hs (_, cells) ->
        hs @ List.filter (fun h -> not (List.mem h hs)) (List.map fst cells))
      []
      (List.stable_sort
         (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
         lines)
  in
  let t = Rcoe_util.Table.create ~headers:(title :: headers) in
  List.iter
    (fun (name, cells) ->
      Rcoe_util.Table.add_row t
        (name
        :: List.map
             (fun h -> Option.value ~default:"" (List.assoc_opt h cells))
             headers))
    lines;
  Rcoe_util.Table.print t

let lookup j path =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    (Some j)
    (String.split_on_char '.' path)

let key_of j =
  match (Json.member "name" j, Json.member "label" j) with
  | Some (Json.String k), _ | _, Some (Json.String k) -> k
  | _ -> "?"

let number = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> failwith "baseline file: expected number"

let rec check ~tol section fresh committed =
  let committed = match committed with Some (Json.List l) -> l | _ -> [] in
  let measured =
    List.concat_map
      (fun r ->
        let at = section ^ " " ^ r.key in
        match List.find_opt (fun j -> key_of j = r.key) committed with
        | None -> [ at ^ ": not present in committed baseline" ]
        | Some j ->
            List.concat_map (fun f -> check_field ~tol at f (lookup j f.path))
              r.fields)
      fresh
  in
  measured
  @ List.filter_map
      (fun j ->
        if List.exists (fun r -> r.key = key_of j) fresh then None
        else
          Some
            (Printf.sprintf "%s %s: committed row no longer measured" section
               (key_of j)))
      committed

and check_field ~tol at f committed =
  let pct = 100. *. tol in
  match (f.rule, f.value, committed) with
  | _, Rows l, c -> check ~tol at l c
  | Info, _, _ -> []
  | _, _, None ->
      [ Printf.sprintf "%s: %s missing from committed row" at f.path ]
  | Exact, v, Some c ->
      if json v = c then []
      else
        [
          Printf.sprintf "%s: %s %s != committed %s" at f.path
            (Json.to_string (json v)) (Json.to_string c);
        ]
  | Wall, Secs s, Some c ->
      let c = number c in
      if s > c *. (1. +. tol) then
        [
          Printf.sprintf "%s: %s %.3fs regressed >%.0f%% over committed %.3fs"
            at f.path s pct c;
        ]
      else []
  | Speedup, Ratio r, Some c ->
      let c = number c in
      if r < c /. (1. +. tol) then
        [
          Printf.sprintf "%s: %s %.2fx regressed >%.0f%% below committed %.2fx"
            at f.path r pct c;
        ]
      else []
  | (Wall | Speedup), _, _ -> invalid_arg "Schema: rule and value disagree"

let reps = 3

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let repeat ~what ~identity run =
  let runs = List.init reps (fun _ -> run ()) in
  let first = List.hd runs in
  if List.exists (fun r -> identity r <> identity first) runs then
    failwith
      (Printf.sprintf "baseline: %s is not run-to-run deterministic" what);
  let median wall = List.nth (List.sort compare (List.map wall runs)) (reps / 2) in
  (first, median)
