(* The benchmark baseline's row schema on hand-built rows (no
   simulation): the v6 JSON nesting and key order, and the rules
   `baseline-check` compares each field by. *)

module Json = Rcoe_obs.Json

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* One workload-style row: a nested [base.*] and [fault.*] group and a
   [label]-keyed [configs] sub-list, with one field of each rule. *)
let fixture ?(cycles = 549119) ?(wall_s = 0.5) ?(speedup_x = 3.0)
    ?(mode = "CC") ?(overhead = 0.25) ?(matches = true) ?(configs = [])
    ?(rows = []) () =
  Schema.
    [
      row "md5sum"
        [
          exact "base.cycles" 527373;
          wall "base.wall_s" wall_s;
          info "configs"
            (Rows
               (sub "CC-DMR"
                  [
                    info "mode" (Text mode);
                    exact "cycles" cycles;
                    info "sync_overhead" (Share overhead);
                  ]
               :: configs));
          speedup "speedup" speedup_x;
          exact "fault.cycles" 1071402;
          info "fault.output_matches" (Flag matches);
        ];
    ]
  @ rows

(* Compare [fresh] rows against [committed] ones, at 10% tolerance. *)
let diff fresh committed =
  Schema.check ~tol:0.1 "wl" fresh (Some (Schema.to_json committed))

let test_v6_layout () =
  Alcotest.(check string)
    "nesting and key order"
    "[{\"name\":\"md5sum\",\"base\":{\"cycles\":527373,\"wall_s\":0.5},\
     \"configs\":[{\"label\":\"CC-DMR\",\"mode\":\"CC\",\"cycles\":549119,\
     \"sync_overhead\":0.25}],\"speedup\":3.0,\
     \"fault\":{\"cycles\":1071402,\"output_matches\":true}}]"
    (Json.to_string (Schema.to_json (fixture ())))

let test_self_compare () =
  Alcotest.(check (list string)) "own JSON" [] (diff (fixture ()) (fixture ()));
  (* Through the file format too: render, parse, compare. *)
  let parsed =
    match Json.parse (Json.to_string (Schema.to_json (fixture ()))) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string))
    "parsed JSON" []
    (Schema.check ~tol:0.1 "wl" (fixture ()) (Some parsed))

let fails_with ~expect failures =
  match failures with
  | [ f ] when contains f expect -> ()
  | fs ->
      Alcotest.failf "expected one failure mentioning %S, got [%s]" expect
        (String.concat "; " fs)

let test_exact_drift () =
  fails_with ~expect:"wl md5sum CC-DMR: cycles 549120 != committed 549119"
    (diff (fixture ~cycles:549120 ()) (fixture ()))

let test_wall () =
  (* 10% tolerance over a committed 0.5s: 0.54s passes, 0.56s fails. *)
  Alcotest.(check (list string))
    "within tolerance" []
    (diff (fixture ~wall_s:0.54 ()) (fixture ()));
  fails_with ~expect:"wl md5sum: base.wall_s 0.560s regressed >10% over"
    (diff (fixture ~wall_s:0.56 ()) (fixture ()));
  Alcotest.(check (list string))
    "faster is fine" []
    (diff (fixture ~wall_s:0.1 ()) (fixture ()))

let test_speedup () =
  (* committed 3.0x / 1.1 = 2.73x is the floor. *)
  Alcotest.(check (list string))
    "within tolerance" []
    (diff (fixture ~speedup_x:2.75 ()) (fixture ()));
  fails_with ~expect:"wl md5sum: speedup 2.70x regressed >10% below committed"
    (diff (fixture ~speedup_x:2.7 ()) (fixture ()));
  Alcotest.(check (list string))
    "higher is fine" []
    (diff (fixture ~speedup_x:9.0 ()) (fixture ()))

let test_missing_committed_row () =
  fails_with ~expect:"wl md5sum: not present in committed baseline"
    (diff (fixture ()) []);
  fails_with ~expect:"wl md5sum CC-DMR-x: not present in committed baseline"
    (diff
       (fixture ~configs:Schema.[ sub "CC-DMR-x" [ exact "cycles" 1 ] ] ())
       (fixture ()))

let test_extra_committed_row () =
  let ghost = Schema.[ row "ghost" [ exact "cycles" 1 ] ] in
  fails_with ~expect:"wl ghost: committed row no longer measured"
    (diff (fixture ()) (fixture ~rows:ghost ()));
  fails_with ~expect:"wl md5sum CC-TMR: committed row no longer measured"
    (diff (fixture ())
       (fixture ~configs:Schema.[ sub "CC-TMR" [ exact "cycles" 1 ] ] ()))

let test_info_never_fails () =
  Alcotest.(check (list string))
    "info drift" []
    (diff
       (fixture ~mode:"LC" ~overhead:9.0 ~matches:false ())
       (fixture ()))

let test_accessors () =
  let r = List.hd (fixture ()) in
  Alcotest.(check int) "nested int" 1071402 (Schema.int r "fault.cycles");
  Alcotest.(check (float 0.)) "wall" 0.5 (Schema.num r "base.wall_s");
  Alcotest.(check bool) "flag" true (Schema.flag r "fault.output_matches");
  Alcotest.(check (list string))
    "sub-list keys" [ "CC-DMR" ]
    (List.map Schema.key (Schema.rows r "configs"))

let suite =
  [
    Alcotest.test_case "v6 nesting and key order" `Quick test_v6_layout;
    Alcotest.test_case "rows match their own JSON" `Quick test_self_compare;
    Alcotest.test_case "exact drift fails" `Quick test_exact_drift;
    Alcotest.test_case "wall over tolerance fails" `Quick test_wall;
    Alcotest.test_case "speedup under tolerance fails" `Quick test_speedup;
    Alcotest.test_case "missing committed row fails" `Quick
      test_missing_committed_row;
    Alcotest.test_case "extra committed row fails" `Quick
      test_extra_committed_row;
    Alcotest.test_case "info fields never fail" `Quick test_info_never_fails;
    Alcotest.test_case "field accessors" `Quick test_accessors;
  ]
