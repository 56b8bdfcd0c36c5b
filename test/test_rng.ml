open Rcoe_util

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 8 (fun _ -> Rng.next a) in
  let ys = List.init 8 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_split_independence () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  (* Draw from the child; the parent must continue from where split left it,
     independent of how much the child is used. *)
  let parent' = Rng.copy parent in
  for _ = 1 to 50 do
    ignore (Rng.next child)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int) "parent unaffected" (Rng.next parent') (Rng.next parent)
  done

let test_copy () =
  let a = Rng.create 9 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int) "copy replays" (Rng.next a) (Rng.next b)
  done

let test_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_int_rejects_bad_bound () =
  let r = Rng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

(* [below] is the jitter draw of both execution backends. It must equal
   the float comparison it replaced, draw for draw: the profiles' jitter
   probabilities, round and exact binary values (0.25 and 0.5 give an
   integer threshold), certainty and a tiny probability. It must
   advance the stream as one [bits64] step does, and allocate nothing. *)
let test_below_equals_float_draw () =
  let two53 = 9007199254740992.0 in
  List.iter
    (fun p ->
      let t = Rng.create 11 in
      let u = Rng.copy t in
      let thr = Rng.threshold p in
      let mismatches = ref 0 in
      for _ = 1 to 1_000_000 do
        let f =
          Int64.to_float (Int64.shift_right_logical (Rng.bits64 u) 11)
          /. two53
          < p
        in
        if Rng.below t thr <> f then incr mismatches
      done;
      Alcotest.(check int) (Printf.sprintf "mismatches at p=%h" p) 0 !mismatches;
      Alcotest.(check int)
        (Printf.sprintf "same stream position at p=%h" p)
        (Rng.next u) (Rng.next t))
    [ 0.012; 0.013; 0.1; 0.25; 0.5; 1.0; Float.ldexp 1.0 (-40) ];
  let t = Rng.create 12 and thr = Rng.threshold 0.012 in
  let draws () =
    for _ = 1 to 10_000 do
      ignore (Rng.below t thr : bool)
    done
  in
  draws ();
  let before = Gc.minor_words () in
  draws ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 10k draws" 0.0 words

let test_next_nonnegative () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "non-negative" true (Rng.next r >= 0)
  done

let test_bool_mixes () =
  let r = Rng.create 6 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Rng.int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy replays" `Quick test_copy;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick
      test_int_rejects_bad_bound;
    Alcotest.test_case "below equals the float draw" `Quick
      test_below_equals_float_draw;
    Alcotest.test_case "next non-negative" `Quick test_next_nonnegative;
    Alcotest.test_case "bool mixes" `Quick test_bool_mixes;
    QCheck_alcotest.to_alcotest qcheck_int_in_range;
  ]
