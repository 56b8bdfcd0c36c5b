open Rcoe_util

let feq = Alcotest.float 1e-9

let test_mean () = Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stddev () =
  (* Sample stddev of 2,4,4,4,5,5,7,9 is sqrt(32/7). *)
  Alcotest.check feq "stddev"
    (sqrt (32.0 /. 7.0))
    (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stddev_singleton () =
  Alcotest.check feq "singleton" 0.0 (Stats.stddev [ 5.0 ])

let test_summarize () =
  let s = Stats.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Alcotest.check feq "min" 1.0 s.Stats.min;
  Alcotest.check feq "max" 3.0 s.Stats.max

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty list")
    (fun () -> ignore (Stats.summarize []))

let test_geomean () =
  Alcotest.check feq "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "median" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.check feq "p99" 99.0 (Stats.percentile 99.0 xs);
  Alcotest.check feq "max" 100.0 (Stats.percentile 100.0 xs)

let test_format_paper () =
  let s = Stats.summarize [ 85.0; 87.0 ] in
  (* mean 86, stddev sqrt(2) ~ 1.41 -> "86 (1)" *)
  Alcotest.(check string) "paper style" "86 (1)" (Stats.format_paper ~decimals:0 s)

let test_format_paper_decimals () =
  let s = Stats.summarize [ 1.23; 1.27 ] in
  (* mean 1.25, stddev ~0.028 -> at 2 decimals: "1.25 (3)" *)
  Alcotest.(check string) "decimals" "1.25 (3)" (Stats.format_paper ~decimals:2 s)

let qcheck_mean_within_bounds =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.summarize xs in
      s.Stats.mean >= s.Stats.min -. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let qcheck_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= arithmetic mean (AM-GM)" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.001 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      Stats.geomean xs <= Stats.mean xs +. 1e-6)

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-500.0) 500.0))

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(triple nonempty_floats (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (xs, p1, p2) ->
      QCheck.assume (xs <> []);
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let qcheck_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:300
    QCheck.(pair nonempty_floats (float_range 0.0 100.0))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      let v = Stats.percentile p xs in
      let s = Stats.summarize xs in
      v >= s.Stats.min -. 1e-9 && v <= s.Stats.max +. 1e-9)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "stddev singleton" `Quick test_stddev_singleton;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty raises" `Quick test_summarize_empty;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "geomean rejects non-positive" `Quick
      test_geomean_rejects_nonpositive;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "format_paper" `Quick test_format_paper;
    Alcotest.test_case "format_paper decimals" `Quick test_format_paper_decimals;
    QCheck_alcotest.to_alcotest qcheck_mean_within_bounds;
    QCheck_alcotest.to_alcotest qcheck_geomean_le_mean;
    QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounded;
  ]
