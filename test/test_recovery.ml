(* Tests for the verified-checkpoint / rollback-recovery subsystem:
   ring semantics, kernel snapshot round-trip, config validation, the
   fail-stop -> fail-recover acceptance scenarios (transient fault
   Recovered, persistent fault exhausts the budget and halts), cycle
   identity of traced runs, the pending-reintegration regression, and
   the Perfetto export of checkpoint/rollback events. *)

open Rcoe_machine
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics
module Json = Rcoe_obs.Json
module Export = Rcoe_obs.Export
module Outcome = Rcoe_faults.Outcome

let x86 = Arch.X86

(* --- checkpoint ring ---------------------------------------------------- *)

let mk_snap cycle =
  {
    Checkpoint.s_cycle = cycle;
    s_round_seq = cycle / 100;
    s_ticks = 0;
    s_prim = 0;
    s_shared = Checkpoint.empty_region;
    s_dma = Checkpoint.empty_region;
    s_replicas = [];
    s_words = 0;
    s_skipped_words = 0;
  }

let newest_cycle ck =
  match Checkpoint.newest ck with
  | Some s -> s.Checkpoint.s_cycle
  | None -> -1

let test_ring_semantics () =
  let ck = Checkpoint.create ~depth:2 in
  Alcotest.(check int) "depth" 2 (Checkpoint.depth ck);
  Alcotest.(check int) "empty" 0 (Checkpoint.count ck);
  Alcotest.(check bool) "no newest" true (Checkpoint.newest ck = None);
  Checkpoint.push ck (mk_snap 100);
  Checkpoint.push ck (mk_snap 200);
  Checkpoint.push ck (mk_snap 300);
  Alcotest.(check int) "bounded" 2 (Checkpoint.count ck);
  Alcotest.(check int) "lifetime taken" 3 (Checkpoint.taken ck);
  Alcotest.(check int) "newest wins" 300 (newest_cycle ck);
  Checkpoint.drop_newest ck;
  Alcotest.(check int) "escalates to older" 200 (newest_cycle ck);
  Checkpoint.drop_newest ck;
  Alcotest.(check int) "drained" 0 (Checkpoint.count ck);
  Alcotest.(check bool) "empty again" true (Checkpoint.newest ck = None);
  (* Dropping when empty is a no-op, and the ring keeps working. *)
  Checkpoint.drop_newest ck;
  Checkpoint.push ck (mk_snap 400);
  Alcotest.(check int) "reusable" 400 (newest_cycle ck);
  Alcotest.(check int) "taken keeps counting" 4 (Checkpoint.taken ck);
  Alcotest.check_raises "depth >= 1"
    (Invalid_argument "Checkpoint.create: depth must be >= 1") (fun () ->
      ignore (Checkpoint.create ~depth:0))

(* --- config validation -------------------------------------------------- *)

let test_config_validation () =
  let base every =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ())
      with
      Config.checkpoint_every = every;
    }
  in
  (match Config.validate (base 2) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid checkpoint config rejected: %s" e);
  let expect_err label cfg =
    match Config.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s must be rejected" label
  in
  expect_err "negative interval" (base (-1));
  expect_err "checkpointing on Base"
    { (base 2) with Config.mode = Config.Base; nreplicas = 1 };
  expect_err "zero depth" { (base 2) with Config.checkpoint_depth = 0 };
  expect_err "zero budget" { (base 2) with Config.max_rollbacks = 0 }

(* --- kernel snapshot round-trip ----------------------------------------- *)

let test_kernel_snapshot_roundtrip () =
  let config = Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:3 () in
  let program =
    Md5sum.program ~message_words:64 ~iters:6 ~seed:2 ~branch_count:false ()
  in
  let sys = System.create ~config ~program in
  (* Stop mid-run, after some but not all digests are out. *)
  System.run sys ~max_cycles:5_000_000 ~stop:(fun s ->
      String.length (System.output s 0) >= 2);
  Alcotest.(check bool) "mid-run" true (not (System.finished sys));
  let k = System.kernel sys 0 in
  let snap = Rcoe_kernel.Kernel.snapshot k in
  let out = System.output sys 0 in
  (* Run on until the replica visibly makes progress... *)
  System.run sys ~max_cycles:5_000_000 ~stop:(fun s ->
      String.length (System.output s 0) > String.length out);
  Alcotest.(check bool) "output grew" true
    (String.length (System.output sys 0) > String.length out);
  (* ...then rewind: the output buffer must truncate back exactly. *)
  Rcoe_kernel.Kernel.restore k snap;
  Alcotest.(check string) "output truncated on restore" out
    (System.output sys 0)

(* --- fail-stop vs fail-recover acceptance ------------------------------- *)

let test_transient_fault_recovered () =
  (* The tentpole scenario: DMR (masking impossible), one transient
     signature corruption, checkpointing on -> the run must finish with
     correct output and classify as Recovered. *)
  let outcome, rollbacks, ckpts, latencies =
    Fault_experiments.recovery_trial ~checkpointing:true ~fault:`Transient
      ~seed:2 ()
  in
  Alcotest.(check string) "outcome" "Recovered (rolled back)"
    (Outcome.to_string outcome);
  Alcotest.(check bool) "controlled" true (Outcome.controlled outcome);
  Alcotest.(check bool) "rolled back at least once" true (rollbacks >= 1);
  Alcotest.(check bool) "took checkpoints" true (ckpts >= 1);
  Alcotest.(check int) "one latency sample per rollback" rollbacks
    (List.length latencies);
  List.iter
    (fun l -> Alcotest.(check bool) "positive latency" true (l > 0.0))
    latencies

let test_same_fault_halts_without_checkpointing () =
  let outcome, rollbacks, ckpts, _ =
    Fault_experiments.recovery_trial ~checkpointing:false ~fault:`Transient
      ~seed:2 ()
  in
  Alcotest.(check bool) "fail-stop" true (outcome = Outcome.Signature_mismatch);
  Alcotest.(check int) "no rollbacks" 0 rollbacks;
  Alcotest.(check int) "no checkpoints" 0 ckpts

let test_persistent_fault_exhausts_budget () =
  (* A stuck-at fault re-asserts after every recovery: the system must
     escalate through the ring (retry newest, drop, retry older) and
     finally fail-stop — never loop forever, never emit bad output. *)
  let outcome, rollbacks, _, _ =
    Fault_experiments.recovery_trial ~checkpointing:true ~fault:`Persistent
      ~seed:1 ()
  in
  Alcotest.(check bool) "still fail-stops" true
    (outcome = Outcome.Signature_mismatch);
  Alcotest.(check bool)
    (Printf.sprintf "escalated across snapshots (%d rollbacks)" rollbacks)
    true (rollbacks >= 2)

(* --- cycle identity under tracing --------------------------------------- *)

let recovery_run ~trace =
  let config =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:11 ())
      with
      Config.barrier_timeout = 600_000;
      checkpoint_every = 2;
      checkpoint_depth = 3;
      max_rollbacks = 8;
      trace;
    }
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()
  in
  let sys = System.create ~config ~program in
  System.run sys ~max_cycles:60_000;
  let addr = System.sig_base sys 1 + 1 and bit = 7 in
  Mem.flip_bit (System.machine sys).Machine.mem ~addr ~bit;
  Trace.injection (System.trace sys) ~addr ~bit;
  System.run sys ~max_cycles:30_000_000;
  sys

let test_traced_run_cycle_identical () =
  let a = recovery_run ~trace:None in
  let b = recovery_run ~trace:(Some { Trace.capacity = 1 lsl 18 }) in
  Alcotest.(check bool) "untraced finished" true (System.finished a);
  Alcotest.(check bool) "traced finished" true (System.finished b);
  Alcotest.(check bool) "recovered (untraced)" true
    (System.halted a = None && System.rollbacks a <> []);
  Alcotest.(check int) "same rollbacks"
    (List.length (System.rollbacks a))
    (List.length (System.rollbacks b));
  Alcotest.(check int) "same checkpoints" (System.checkpoints_taken a)
    (System.checkpoints_taken b);
  Alcotest.(check int) "same final cycle" (System.now a) (System.now b);
  Alcotest.(check string) "same output" (System.output a 0) (System.output b 0);
  Alcotest.(check string) "correct output" "........" (System.output a 0)

(* --- Perfetto export of recovery events --------------------------------- *)

let test_export_checkpoint_rollback_events () =
  let sys = recovery_run ~trace:(Some { Trace.capacity = 1 lsl 18 }) in
  let tr = System.trace sys in
  Alcotest.(check int) "ring did not drop events" 0 (Trace.dropped tr);
  let json = Export.to_chrome_json tr in
  match Json.parse json with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let named n e = Json.member "name" e = Some (Json.String n) in
          let count n = List.length (List.filter (named n) evs) in
          Alcotest.(check int) "one span per checkpoint"
            (System.checkpoints_taken sys)
            (count "checkpoint");
          Alcotest.(check int) "one span per rollback"
            (List.length (System.rollbacks sys))
            (count "rollback");
          Alcotest.(check bool) "rollbacks present" true (count "rollback" >= 1);
          let recovery_thread_named =
            List.exists
              (fun e ->
                named "thread_name" e
                && Json.member "ph" e = Some (Json.String "M")
                &&
                match Json.member "args" e with
                | Some a ->
                    Json.member "name" a = Some (Json.String "recovery")
                | None -> false)
              evs
          in
          Alcotest.(check bool) "recovery thread metadata" true
            recovery_thread_named
      | _ -> Alcotest.fail "no traceEvents list")

(* --- pending re-integration survives a rollback (regression) ------------ *)

let test_pending_reintegration_survives_rollback () =
  (* Regression for maybe_reintegrate dropping a pending request at the
     first round end where the replica is not Rs_removed. Scenario: a
     TMR downgrade removes replica 2; a re-admission request is filed;
     before it applies, a second fault forces a rollback to a snapshot
     that predates the downgrade, reviving replica 2. The request must
     stay pending (not silently vanish) and then apply by itself when
     replica 2 is next removed. *)
  let config =
    {
      Config.default with
      Config.mode = Config.LC;
      nreplicas = 3;
      masking = true;
      tick_interval = 5_000;
      barrier_timeout = 60_000;
      checkpoint_every = 10;
      checkpoint_depth = 2;
      max_rollbacks = 4;
    }
  in
  let a = Rcoe_isa.Asm.create "spin" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.for_up a Rcoe_isa.Reg.R4 ~start:0
    ~stop:(Rcoe_isa.Instr.Imm 2_000_000) (fun () -> Rcoe_isa.Asm.nop a);
  Rcoe_isa.Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  let program = Rcoe_isa.Asm.assemble ~entry:"main" a in
  let sys = System.create ~config ~program in
  (* Warm until a checkpoint with all three replicas live exists. *)
  System.run sys ~max_cycles:1_000_000 ~stop:(fun s ->
      System.checkpoints_taken s >= 1);
  Alcotest.(check bool) "warm checkpoint" true
    (System.checkpoints_taken sys >= 1);
  (* Fault replica 2 -> masked downgrade to DMR. *)
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 2 + 1) ~bit:5;
  System.run sys ~max_cycles:200_000 ~stop:(fun s -> System.downgrades s <> []);
  Alcotest.(check (list int)) "DMR" [ 0; 1 ] (System.live sys);
  (match System.request_reintegration sys ~rid:2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "request rejected: %s" e);
  (* Second fault while only two replicas are live: masking is
     impossible, so recovery rolls back — to a snapshot that still
     contains replica 2, reviving it with the request still pending. *)
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 1 + 1) ~bit:6;
  System.run sys ~max_cycles:200_000 ~stop:(fun s -> System.rollbacks s <> []);
  Alcotest.(check int) "rolled back once" 1 (List.length (System.rollbacks sys));
  Alcotest.(check (list int)) "rollback revived replica 2" [ 0; 1; 2 ]
    (System.live sys);
  Alcotest.(check bool) "no halt" true (System.halted sys = None);
  (* Several clean rounds pass: the buggy code dropped the pending
     request here. *)
  System.run sys ~max_cycles:50_000;
  Alcotest.(check bool) "not yet applied" true (System.reintegrations sys = []);
  Alcotest.(check bool) "still running" true (System.halted sys = None);
  (* Replica 2 is removed again: the surviving request must apply on
     its own, with no second request_reintegration call. *)
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 2 + 1) ~bit:9;
  System.run sys ~max_cycles:200_000
    ~stop:(fun s -> System.reintegrations s <> []);
  (match System.reintegrations sys with
  | [ (_, 2) ] -> ()
  | _ -> Alcotest.fail "pending request was lost across the rollback");
  Alcotest.(check (list int)) "TMR restored" [ 0; 1; 2 ] (System.live sys);
  Alcotest.(check bool) "no halt at end" true (System.halted sys = None)

let suite =
  [
    Alcotest.test_case "checkpoint ring semantics" `Quick test_ring_semantics;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "kernel snapshot round-trip" `Quick
      test_kernel_snapshot_roundtrip;
    Alcotest.test_case "transient fault recovered" `Slow
      test_transient_fault_recovered;
    Alcotest.test_case "same fault halts without checkpointing" `Quick
      test_same_fault_halts_without_checkpointing;
    Alcotest.test_case "persistent fault exhausts budget" `Slow
      test_persistent_fault_exhausts_budget;
    Alcotest.test_case "traced run cycle-identical" `Slow
      test_traced_run_cycle_identical;
    Alcotest.test_case "export checkpoint/rollback events" `Slow
      test_export_checkpoint_rollback_events;
    Alcotest.test_case "pending reintegration survives rollback" `Slow
      test_pending_reintegration_survives_rollback;
  ]
