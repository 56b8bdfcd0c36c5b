type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  mutable samples : float list;  (* newest first *)
  mutable n : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Hdr of Hdr.t

type t = { mutable instruments : (string * instrument) list (* newest first *) }

let create () = { instruments = [] }

let register t name ins =
  if List.mem_assoc name t.instruments then
    invalid_arg (Printf.sprintf "Metrics: duplicate instrument %S" name);
  t.instruments <- (name, ins) :: t.instruments

let counter t name =
  let c = { c = 0 } in
  register t name (Counter c);
  c

let gauge t name =
  let g = { g = 0.0 } in
  register t name (Gauge g);
  g

let histogram t name =
  let h = { samples = []; n = 0 } in
  register t name (Histogram h);
  h

let hdr t name =
  let h = Hdr.create () in
  register t name (Hdr h);
  h

let incr ?(by = 1) c = c.c <- c.c + by
let set g v = g.g <- v

let observe h v =
  h.samples <- v :: h.samples;
  h.n <- h.n + 1

let count c = c.c
let value g = g.g
let samples h = List.rev h.samples
let names t = List.rev_map fst t.instruments

let find t name =
  match List.assoc_opt name t.instruments with
  | Some ins -> Some ins
  | None -> None

let find_counter t name =
  match find t name with Some (Counter c) -> Some c | _ -> None

let find_histogram t name =
  match find t name with Some (Histogram h) -> Some h | _ -> None

let find_gauge t name =
  match find t name with Some (Gauge g) -> Some g | _ -> None

let find_hdr t name = match find t name with Some (Hdr h) -> Some h | _ -> None

let gauge_or t name = match find_gauge t name with Some g -> g | None -> gauge t name

let to_table t =
  let open Rcoe_util in
  let tbl =
    Table.create
      ~headers:[ "metric"; "kind"; "count"; "mean"; "p50"; "p95"; "max" ]
  in
  List.iter
    (fun (name, ins) ->
      match ins with
      | Counter c -> Table.add_row tbl [ name; "counter"; string_of_int c.c ]
      | Gauge g ->
          Table.add_row tbl [ name; "gauge"; Printf.sprintf "%.2f" g.g ]
      | Histogram h ->
          if h.n = 0 then Table.add_row tbl [ name; "histogram"; "0" ]
          else
            let xs = h.samples in
            let s = Stats.summarize xs in
            Table.add_row tbl
              [
                name;
                "histogram";
                string_of_int s.Stats.n;
                Printf.sprintf "%.1f" s.Stats.mean;
                Printf.sprintf "%.1f" (Stats.percentile 50.0 xs);
                Printf.sprintf "%.1f" (Stats.percentile 95.0 xs);
                Printf.sprintf "%.1f" s.Stats.max;
              ]
      | Hdr h ->
          if Hdr.count h = 0 then Table.add_row tbl [ name; "hdr"; "0" ]
          else
            Table.add_row tbl
              [
                name;
                "hdr";
                string_of_int (Hdr.count h);
                Printf.sprintf "%.1f" (Hdr.mean h);
                string_of_int (Hdr.percentile h 50.0);
                string_of_int (Hdr.percentile h 95.0);
                string_of_int (Hdr.max_value h);
              ])
    (List.rev t.instruments);
  tbl
