type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (sq /. float_of_int (List.length xs - 1))

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty list"
  | x :: _ as xs ->
      {
        n = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Float.min x xs;
        max = List.fold_left Float.max x xs;
      }

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty list"
  | xs ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
            else acc +. log x)
          0.0 xs
      in
      exp (log_sum /. float_of_int (List.length xs))

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
      if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: bad p";
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
        |> max 0 |> min (n - 1)
      in
      List.nth sorted rank

let format_paper ~decimals s =
  let unit_scale = 10.0 ** float_of_int decimals in
  let sd_units = int_of_float (Float.round (s.stddev *. unit_scale)) in
  if decimals = 0 then
    Printf.sprintf "%.0f (%d)" s.mean sd_units
  else Printf.sprintf "%.*f (%d)" decimals s.mean sd_units
