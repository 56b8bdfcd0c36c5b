open Rcoe_machine
open Rcoe_kernel
open Rcoe_core

(* --- Clock --------------------------------------------------------------- *)

let user ~count ~b ~ip =
  { Clock.count; pos = Clock.At_user { branches_adj = b; ip } }

let test_clock_order_by_count () =
  Alcotest.(check bool) "count dominates" true
    (Clock.compare (user ~count:2 ~b:0 ~ip:0) (user ~count:1 ~b:999 ~ip:999) > 0)

let test_clock_order_by_branches () =
  Alcotest.(check bool) "branches next" true
    (Clock.compare (user ~count:1 ~b:5 ~ip:0) (user ~count:1 ~b:4 ~ip:100) > 0)

let test_clock_order_by_ip () =
  Alcotest.(check bool) "ip last" true
    (Clock.compare (user ~count:1 ~b:5 ~ip:10) (user ~count:1 ~b:5 ~ip:9) > 0)

let test_clock_kernel_after_user () =
  Alcotest.(check bool) "kernel-parked is later" true
    (Clock.compare (Clock.in_kernel ~count:1) (user ~count:1 ~b:9999 ~ip:9999) > 0)

let test_clock_encode_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Clock.equal_position c (Clock.decode (Clock.encode c))
        && Clock.compare c (Clock.decode (Clock.encode c)) = 0))
    [ user ~count:3 ~b:17 ~ip:42; Clock.in_kernel ~count:9 ]

let test_clock_counter_race_adjustment () =
  (* Paper Listing 3: a replica that executed the counter increment but
     not yet the branch must compare as one completed branch behind. *)
  let profile = Arch.arm in
  let core = Core.create ~id:0 ~jitter_seed:1 in
  core.Core.regs.(9) <- 10;
  core.Core.ip <- 268;
  core.Core.last_was_cntinc <- true;
  let behind = Clock.capture profile ~count:1 core in
  core.Core.last_was_cntinc <- false;
  let ahead = Clock.capture profile ~count:1 core in
  (match behind.Clock.pos with
  | Clock.At_user { branches_adj; _ } ->
      Alcotest.(check int) "adjusted down" 9 branches_adj
  | Clock.In_kernel -> Alcotest.fail "expected user position");
  Alcotest.(check bool) "race-adjusted ordering" true
    (Clock.compare behind ahead < 0)

let test_clock_hw_mode_no_adjustment () =
  let core = Core.create ~id:0 ~jitter_seed:1 in
  core.Core.hw_branches <- 10;
  core.Core.last_was_cntinc <- true;
  (* HW counting ignores the compiler-race flag only via capture used with
     compiler profiles; with the x86 profile the raw PMU value is... also
     adjusted by the flag, but the flag is never set by hardware counting
     because Cntinc does not appear in x86 builds. Simulate that. *)
  core.Core.last_was_cntinc <- false;
  match (Clock.capture Arch.x86 ~count:0 core).Clock.pos with
  | Clock.At_user { branches_adj; _ } -> Alcotest.(check int) "raw" 10 branches_adj
  | Clock.In_kernel -> Alcotest.fail "expected user"

(* --- Signature ------------------------------------------------------------ *)

let test_signature_matches_fletcher () =
  let mem = Mem.create 64 in
  Signature.reset mem ~base:0;
  let words = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  Signature.add_words mem ~base:0 words;
  let f = Rcoe_checksum.Fletcher.create () in
  Rcoe_checksum.Fletcher.add_words f words;
  let _, c0, c1 = Signature.read mem ~base:0 in
  Alcotest.(check (pair int int)) "same recurrence"
    (Rcoe_checksum.Fletcher.value f) (c0, c1)

let test_signature_event_count () =
  let mem = Mem.create 64 in
  Signature.reset mem ~base:8;
  Signature.bump_event mem ~base:8;
  Signature.bump_event mem ~base:8;
  Alcotest.(check int) "count" 2 (Signature.event_count mem ~base:8)

let test_signature_injectable () =
  let mem = Mem.create 64 in
  Signature.reset mem ~base:0;
  Signature.add_word mem ~base:0 77;
  let before = Signature.read mem ~base:0 in
  Mem.flip_bit mem ~addr:1 ~bit:3;
  Alcotest.(check bool) "flip changes signature" false
    (Signature.equal3 before (Signature.read mem ~base:0))

(* --- Vote (paper Listing 5 / Table I) -------------------------------------- *)

let mk_vote_env n =
  let lay = Layout.compute ~nreplicas:n ~user_words:1024 in
  let mem = Mem.create lay.Layout.total_words in
  (mem, lay.Layout.shared)

let test_vote_single_faulter () =
  (* Table I, first example: R2 has a different checksum. *)
  let mem, sh = mk_vote_env 3 in
  Vote.publish_signature mem sh ~rid:0 (5, 0xdead, 0xbeef);
  Vote.publish_signature mem sh ~rid:1 (5, 0xdead, 0xbeef);
  Vote.publish_signature mem sh ~rid:2 (5, 0xdead, 0xbee0);
  Alcotest.(check bool) "disagree" false
    (Vote.signatures_agree mem sh ~live:[ 0; 1; 2 ]);
  match Vote.run mem sh ~live:[ 0; 1; 2 ] with
  | Vote.Faulty 2 -> ()
  | Vote.Faulty n -> Alcotest.failf "wrong faulter %d" n
  | Vote.No_consensus -> Alcotest.fail "expected consensus"

let test_vote_faulter_is_first () =
  let mem, sh = mk_vote_env 3 in
  Vote.publish_signature mem sh ~rid:0 (5, 1, 1);
  Vote.publish_signature mem sh ~rid:1 (5, 2, 2);
  Vote.publish_signature mem sh ~rid:2 (5, 2, 2);
  match Vote.run mem sh ~live:[ 0; 1; 2 ] with
  | Vote.Faulty 0 -> ()
  | _ -> Alcotest.fail "expected replica 0"

let test_vote_all_different_no_consensus () =
  (* Table I, second example: all checksums differ. *)
  let mem, sh = mk_vote_env 3 in
  Vote.publish_signature mem sh ~rid:0 (5, 1, 1);
  Vote.publish_signature mem sh ~rid:1 (5, 2, 2);
  Vote.publish_signature mem sh ~rid:2 (5, 3, 3);
  match Vote.run mem sh ~live:[ 0; 1; 2 ] with
  | Vote.No_consensus -> ()
  | Vote.Faulty n -> Alcotest.failf "unexpected consensus on %d" n

let test_vote_rejects_dmr () =
  let mem, sh = mk_vote_env 2 in
  Alcotest.(check bool) "raises" true
    (try ignore (Vote.run mem sh ~live:[ 0; 1 ]); false
     with Invalid_argument _ -> true)

let test_vote_five_replicas () =
  (* "Supports any number of replicas N >= 3." *)
  let mem, sh = mk_vote_env 5 in
  List.iter
    (fun r ->
      Vote.publish_signature mem sh ~rid:r
        (if r = 3 then (9, 9, 9) else (1, 2, 3)))
    [ 0; 1; 2; 3; 4 ];
  match Vote.run mem sh ~live:[ 0; 1; 2; 3; 4 ] with
  | Vote.Faulty 3 -> ()
  | _ -> Alcotest.fail "expected replica 3"

let test_vote_after_downgrade_subset () =
  (* Voting among a non-contiguous live set (after an earlier removal). *)
  let mem, sh = mk_vote_env 4 in
  List.iter
    (fun r ->
      Vote.publish_signature mem sh ~rid:r
        (if r = 2 then (7, 7, 7) else (4, 4, 4)))
    [ 0; 2; 3 ];
  match Vote.run mem sh ~live:[ 0; 2; 3 ] with
  | Vote.Faulty 2 -> ()
  | _ -> Alcotest.fail "expected replica 2"

let qcheck_vote_convicts_the_odd_one =
  QCheck.Test.make ~name:"vote always convicts the unique deviant" ~count:200
    QCheck.(triple (int_bound 2) (int_bound 1000) (int_bound 1000))
    (fun (faulty, a, b) ->
      QCheck.assume (a <> b);
      let mem, sh = mk_vote_env 3 in
      List.iter
        (fun r ->
          Vote.publish_signature mem sh ~rid:r
            (if r = faulty then (1, b, b) else (1, a, a)))
        [ 0; 1; 2 ];
      Vote.run mem sh ~live:[ 0; 1; 2 ] = Vote.Faulty faulty)

(* --- Config --------------------------------------------------------------- *)

let test_config_validation () =
  let bad cfg = match Config.validate cfg with Error _ -> true | Ok () -> false in
  Alcotest.(check bool) "base with 2" true
    (bad { Config.default with Config.nreplicas = 2 });
  Alcotest.(check bool) "lc with 1" true
    (bad { Config.default with Config.mode = Config.LC });
  Alcotest.(check bool) "masking needs 3" true
    (bad { Config.default with Config.mode = Config.LC; nreplicas = 2; masking = true });
  Alcotest.(check bool) "vm on arm" true
    (bad
       {
         Config.default with
         Config.mode = Config.CC;
         nreplicas = 2;
         vm = true;
         arch = Arch.Arm;
       });
  Alcotest.(check bool) "lc vm" true
    (bad { Config.default with Config.mode = Config.LC; nreplicas = 2; vm = true });
  Alcotest.(check bool) "cc masking on arm" true
    (bad
       {
         Config.default with
         Config.mode = Config.CC;
         nreplicas = 3;
         masking = true;
         arch = Arch.Arm;
       });
  Alcotest.(check bool) "lc masking on arm ok" false
    (bad
       {
         Config.default with
         Config.mode = Config.LC;
         nreplicas = 3;
         masking = true;
         arch = Arch.Arm;
       })

let test_config_labels () =
  let lbl mode n =
    Config.replicas_label { Config.default with Config.mode; nreplicas = n }
  in
  Alcotest.(check string) "base" "Base" (lbl Config.Base 1);
  Alcotest.(check string) "lcd" "LC-D" (lbl Config.LC 2);
  Alcotest.(check string) "cct" "CC-T" (lbl Config.CC 3);
  Alcotest.(check string) "lc5" "LC-5" (lbl Config.LC 5)

(* --- System-level behaviours ----------------------------------------------- *)

let spin_exit_program ~loops =
  let a = Rcoe_isa.Asm.create "spin" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.for_up a Rcoe_isa.Reg.R4 ~start:0 ~stop:(Rcoe_isa.Instr.Imm loops)
    (fun () -> Rcoe_isa.Asm.nop a);
  Rcoe_isa.Asm.syscall a Syscall.sys_exit;
  Rcoe_isa.Asm.assemble ~entry:"main" a

let lc_cfg ?(n = 2) ?(masking = false) () =
  {
    Config.default with
    Config.mode = Config.LC;
    nreplicas = n;
    masking;
    tick_interval = 5_000;
    barrier_timeout = 100_000;
  }

let test_system_detects_signature_corruption () =
  let sys =
    System.create ~config:(lc_cfg ()) ~program:(spin_exit_program ~loops:200_000)
  in
  System.run sys ~max_cycles:20_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 1 + 2) ~bit:11;
  System.run sys ~max_cycles:2_000_000;
  Alcotest.(check bool) "halted with mismatch" true
    (System.halted sys = Some System.H_mismatch)

let test_system_detects_hung_replica () =
  let sys =
    System.create ~config:(lc_cfg ()) ~program:(spin_exit_program ~loops:500_000)
  in
  System.run sys ~max_cycles:20_000;
  (* Halt replica 1's core: a hanging replica (paper: straggler). *)
  (System.machine sys).Machine.cores.(1).Core.halted <- true;
  System.run sys ~max_cycles:2_000_000;
  Alcotest.(check bool) "timeout" true (System.halted sys = Some System.H_timeout)

let test_system_masks_follower_fault () =
  let sys =
    System.create
      ~config:(lc_cfg ~n:3 ~masking:true ())
      ~program:(spin_exit_program ~loops:600_000)
  in
  System.run sys ~max_cycles:20_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 2 + 1) ~bit:4;
  System.run sys ~max_cycles:3_000_000;
  (match System.downgrades sys with
  | [ (_, 2, _) ] -> ()
  | _ -> Alcotest.fail "expected downgrade of replica 2");
  Alcotest.(check (list int)) "live set" [ 0; 1 ] (System.live sys);
  Alcotest.(check bool) "still running" true (System.halted sys = None)

let test_system_masks_primary_and_reroutes () =
  let sys =
    System.create
      ~config:(lc_cfg ~n:3 ~masking:true ())
      ~program:(spin_exit_program ~loops:600_000)
  in
  System.run sys ~max_cycles:20_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 0 + 1) ~bit:4;
  System.run sys ~max_cycles:3_000_000;
  (match System.downgrades sys with
  | [ (_, 0, cost) ] ->
      Alcotest.(check bool) "primary removal costs more" true (cost > 100_000)
  | _ -> Alcotest.fail "expected downgrade of replica 0");
  Alcotest.(check int) "new primary" 1 (System.primary sys);
  Alcotest.(check int) "irqs re-routed" 1 (System.machine sys).Machine.irq_route

let test_system_dmr_mismatch_halts () =
  (* DMR can only detect: no masking possible even if requested... the
     config validator rejects masking with n=2, so a plain DMR mismatch
     must halt. *)
  let sys =
    System.create ~config:(lc_cfg ~n:2 ())
      ~program:(spin_exit_program ~loops:400_000)
  in
  System.run sys ~max_cycles:20_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 0 + 1) ~bit:2;
  System.run sys ~max_cycles:2_000_000;
  Alcotest.(check bool) "halted" true (System.halted sys <> None)

let test_system_deterministic_given_seed () =
  let run () =
    let sys =
      System.create ~config:(lc_cfg ()) ~program:(spin_exit_program ~loops:50_000)
    in
    System.run sys ~max_cycles:10_000_000;
    (System.now sys, System.counter sys "sync.rounds")
  in
  Alcotest.(check (pair int int)) "bit-identical reruns" (run ()) (run ())

let test_system_cc_requires_counted_program_on_arm () =
  let cfg =
    {
      Config.default with
      Config.mode = Config.CC;
      nreplicas = 2;
      arch = Arch.Arm;
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (System.create ~config:cfg ~program:(spin_exit_program ~loops:10));
       false
     with Invalid_argument _ -> true)

let test_system_cc_rejects_exclusives () =
  let a = Rcoe_isa.Asm.create "excl" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.emit a (Rcoe_isa.Instr.Ldex (Rcoe_isa.Reg.R1, Rcoe_isa.Reg.R2));
  Rcoe_isa.Asm.syscall a Syscall.sys_exit;
  let program = Rcoe_isa.Asm.assemble ~entry:"main" a in
  let cfg = { Config.default with Config.mode = Config.CC; nreplicas = 2 } in
  Alcotest.(check bool) "raises" true
    (try ignore (System.create ~config:cfg ~program); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "clock: count dominates" `Quick test_clock_order_by_count;
    Alcotest.test_case "clock: branches next" `Quick test_clock_order_by_branches;
    Alcotest.test_case "clock: ip last" `Quick test_clock_order_by_ip;
    Alcotest.test_case "clock: kernel after user" `Quick test_clock_kernel_after_user;
    Alcotest.test_case "clock: encode roundtrip" `Quick test_clock_encode_roundtrip;
    Alcotest.test_case "clock: counter-race adjustment" `Quick
      test_clock_counter_race_adjustment;
    Alcotest.test_case "clock: hw mode raw count" `Quick
      test_clock_hw_mode_no_adjustment;
    Alcotest.test_case "signature matches Fletcher" `Quick
      test_signature_matches_fletcher;
    Alcotest.test_case "signature event count" `Quick test_signature_event_count;
    Alcotest.test_case "signature injectable" `Quick test_signature_injectable;
    Alcotest.test_case "vote: single faulter (Table I)" `Quick
      test_vote_single_faulter;
    Alcotest.test_case "vote: faulter is replica 0" `Quick test_vote_faulter_is_first;
    Alcotest.test_case "vote: all different (Table I)" `Quick
      test_vote_all_different_no_consensus;
    Alcotest.test_case "vote: rejects DMR" `Quick test_vote_rejects_dmr;
    Alcotest.test_case "vote: five replicas" `Quick test_vote_five_replicas;
    Alcotest.test_case "vote: non-contiguous live set" `Quick
      test_vote_after_downgrade_subset;
    QCheck_alcotest.to_alcotest qcheck_vote_convicts_the_odd_one;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config labels" `Quick test_config_labels;
    Alcotest.test_case "system detects signature corruption" `Quick
      test_system_detects_signature_corruption;
    Alcotest.test_case "system detects hung replica" `Quick
      test_system_detects_hung_replica;
    Alcotest.test_case "system masks follower fault" `Quick
      test_system_masks_follower_fault;
    Alcotest.test_case "system masks primary + reroutes" `Quick
      test_system_masks_primary_and_reroutes;
    Alcotest.test_case "DMR mismatch halts" `Quick test_system_dmr_mismatch_halts;
    Alcotest.test_case "deterministic given seed" `Quick
      test_system_deterministic_given_seed;
    Alcotest.test_case "CC on Arm requires counted program" `Quick
      test_system_cc_requires_counted_program_on_arm;
    Alcotest.test_case "CC rejects exclusives" `Quick test_system_cc_rejects_exclusives;
  ]
