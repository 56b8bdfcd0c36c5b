(* Determinism regression suite for the domain-parallel execution
   engine: [Config.Parallel] must be bit-for-bit identical to
   [Config.Sequential] — same final cycle, outputs, stats, metrics,
   logs, and cycle-stamped trace events — across LC/CC x DMR/TMR,
   under fault injection with rollback recovery, and in Base mode.
   Traced rows compare the two engines on the interpreter; untraced
   rows hold the per-cycle oracle ([Interp], [Sequential]) equal to
   the windowed burst path of the [Blocks] backend on both engines
   ([test_exec_blocks.ml] holds traced bursts to it). Also covers the
   [Rcoe_util.Barrier] primitive and the lint-style
   parallel-eligibility rejections. *)

open Rcoe_machine
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Barrier = Rcoe_util.Barrier
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

let x86 = Arch.X86

(* --- the barrier primitive ---------------------------------------------- *)

let test_barrier_validation () =
  Alcotest.check_raises "parties >= 1"
    (Invalid_argument "Barrier.create: parties must be >= 1") (fun () ->
      ignore (Barrier.create 0))

let test_barrier_single_party () =
  (* A 1-party barrier opens immediately; generations still advance. *)
  let b = Barrier.create 1 in
  Barrier.await b;
  Barrier.await b;
  Alcotest.(check pass) "no deadlock" () ()

let test_barrier_rendezvous () =
  (* Two domains ping-pong through a cyclic barrier: after each await
     the other side's previous-phase write must be visible. *)
  let b = Barrier.create 2 in
  let cell = ref 0 in
  let seen = Array.make 3 (-1) in
  let d =
    Domain.spawn (fun () ->
        for i = 0 to 2 do
          cell := (2 * i) + 1;
          Barrier.await b;
          (* phase A: worker wrote *)
          Barrier.await b
          (* phase B: orchestrator read and wrote back *)
        done)
  in
  for i = 0 to 2 do
    Barrier.await b;
    seen.(i) <- !cell;
    Barrier.await b
  done;
  Domain.join d;
  Alcotest.(check (array int)) "each phase visible" [| 1; 3; 5 |] seen

let test_barrier_reuse_many_generations () =
  let b = Barrier.create 2 in
  let n = 500 in
  let sum = ref 0 in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to n do
          Barrier.await b
        done)
  in
  for i = 1 to n do
    sum := !sum + i;
    Barrier.await b
  done;
  Domain.join d;
  Alcotest.(check int) "generations cycled" (n * (n + 1) / 2) !sum

(* --- eligibility lint --------------------------------------------------- *)

let test_parallel_ineligibility () =
  let base =
    Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ()
  in
  let eligible =
    { base with Config.engine = Config.Parallel; exception_barriers = true }
  in
  (match Config.parallel_ineligibility eligible with
  | None -> ()
  | Some r -> Alcotest.failf "eligible config rejected: %s" r);
  (match Config.validate eligible with
  | Ok () -> ()
  | Error e -> Alcotest.failf "eligible config invalid: %s" e);
  let expect_reason label cfg frag =
    match Config.parallel_ineligibility cfg with
    | None -> Alcotest.failf "%s must be ineligible" label
    | Some reason ->
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s reason names the feature" label)
          true (contains reason frag);
        (* validate must reject the same configuration with the same
           lint-style reason. *)
        (match Config.validate { cfg with Config.engine = Config.Parallel } with
        | Error e ->
            Alcotest.(check bool) "validate carries the reason" true
              (contains e frag)
        | Ok () -> Alcotest.failf "%s must fail validation" label)
  in
  expect_reason "with_net"
    { eligible with Config.with_net = true }
    "with_net";
  expect_reason "uncontrolled kernel aborts"
    { eligible with Config.exception_barriers = false }
    "exception_barriers";
  (* Base mode has no sibling replica to take down, and it opens no
     windows, so Base + Parallel is eligible even without exception
     barriers. *)
  let base_par =
    {
      (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ()) with
      Config.engine = Config.Parallel;
    }
  in
  (match Config.parallel_ineligibility base_par with
  | None -> ()
  | Some r -> Alcotest.failf "Base must stay eligible: %s" r)

(* --- bit-for-bit identity ----------------------------------------------- *)

let check_metrics_identical a b =
  let ma = System.metrics a and mb = System.metrics b in
  Alcotest.(check (list string)) "metric names" (Metrics.names ma)
    (Metrics.names mb);
  List.iter
    (fun name ->
      (match (Metrics.find_counter ma name, Metrics.find_counter mb name) with
      | Some ca, Some cb ->
          Alcotest.(check int) ("counter " ^ name) (Metrics.count ca)
            (Metrics.count cb)
      | _ -> ());
      match (Metrics.find_histogram ma name, Metrics.find_histogram mb name)
      with
      | Some ha, Some hb ->
          Alcotest.(check (list (float 0.0))) ("histogram " ^ name)
            (Metrics.samples ha) (Metrics.samples hb)
      | _ -> ())
    (Metrics.names ma)

let check_identical ~label a b =
  Alcotest.(check int) (label ^ ": final cycle") (System.now a) (System.now b);
  Alcotest.(check bool) (label ^ ": finished") (System.finished a)
    (System.finished b);
  Alcotest.(check bool) (label ^ ": halt parity") true
    (System.halted a = System.halted b);
  Alcotest.(check int) (label ^ ": ticks") (System.tick_count a)
    (System.tick_count b);
  Alcotest.(check bool) (label ^ ": event log") true
    (System.events a = System.events b);
  Alcotest.(check bool) (label ^ ": downgrades") true
    (System.downgrades a = System.downgrades b);
  Alcotest.(check bool) (label ^ ": rollbacks") true
    (System.rollbacks a = System.rollbacks b);
  Alcotest.(check int)
    (label ^ ": checkpoints")
    (System.checkpoints_taken a)
    (System.checkpoints_taken b);
  let n = (System.config a).Config.nreplicas in
  for rid = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "%s: output r%d" label rid)
      (System.output a rid) (System.output b rid)
  done;
  check_metrics_identical a b;
  let ta = System.trace a and tb = System.trace b in
  Alcotest.(check int) (label ^ ": trace total") (Trace.total ta)
    (Trace.total tb);
  let ea = Trace.events ta and eb = Trace.events tb in
  Alcotest.(check int) (label ^ ": trace length") (List.length ea)
    (List.length eb);
  List.iteri
    (fun i (eva, evb) ->
      if eva <> evb then
        Alcotest.failf "%s: trace event %d differs: ts=%d rid=%d vs ts=%d rid=%d"
          label i eva.Trace.ts eva.Trace.rid evb.Trace.ts evb.Trace.rid)
    (List.combine ea eb)

(* One run of a row: the engine and backend it runs on, and whether it
   is traced. *)
type variant = {
  v_engine : Config.engine;
  v_backend : Config.exec_backend;
  v_traced : bool;
}

let variant_cfg v cfg =
  {
    cfg with
    Config.engine = v.v_engine;
    exec_backend = v.v_backend;
    (* The parallel engine requires fail-stop (exception-barrier)
       confinement of kernel aborts under replication; every run of a
       row uses the same setting so the comparison is apples-to-apples. *)
    exception_barriers = (cfg.Config.mode <> Config.Base);
    trace = (if v.v_traced then Some { Trace.capacity = 1 lsl 16 } else None);
  }

let md5 () =
  Md5sum.program ~message_words:64 ~iters:6 ~seed:2 ~branch_count:false ()

let run_healthy cfg =
  let sys = System.create ~config:cfg ~program:(md5 ()) in
  System.run sys ~max_cycles:80_000_000;
  sys

(* A traced row compares the two engines on the interpreter. An
   untraced row compares three runs: the per-cycle oracle against the
   [Blocks] backend on both engines, whose replicas burst through
   execution windows. [mk] builds one run from a variant. *)
let row_test ?(expect_complete = true) ?(traced = true) ~label mk () =
  let oracle =
    { v_engine = Config.Sequential; v_backend = Config.Interp; v_traced = traced }
  in
  let others =
    if traced then [ { oracle with v_engine = Config.Parallel } ]
    else
      [
        { oracle with v_backend = Config.Blocks };
        { oracle with v_engine = Config.Parallel; v_backend = Config.Blocks };
      ]
  in
  let a = mk oracle in
  if expect_complete then
    Alcotest.(check bool) (label ^ ": sequential run completed") true
      (System.finished a || System.halted a <> None);
  List.iter
    (fun v ->
      check_identical
        ~label:
          (Printf.sprintf "%s %s/%s" label
             (Config.engine_to_string v.v_engine)
             (Config.exec_backend_to_string v.v_backend))
        a (mk v))
    others

let healthy_pair ~mode ~nreplicas ?(sync_level = Config.Sync_args) ?(vm = false)
    ?traced () =
  row_test ?traced
    ~label:
      (Printf.sprintf "%s-%d%s" (Config.mode_to_string mode) nreplicas
         (if vm then "+vm" else ""))
    (fun v ->
      let cfg =
        {
          (Runner.config_for ~mode ~nreplicas ~arch:x86 ~sync_level ~seed:7 ())
          with
          Config.vm;
        }
      in
      run_healthy (variant_cfg v cfg))
    ()

let test_identity_lc_dmr () = healthy_pair ~mode:Config.LC ~nreplicas:2 ()
let test_identity_lc_tmr () = healthy_pair ~mode:Config.LC ~nreplicas:3 ()
let test_identity_cc_dmr () = healthy_pair ~mode:Config.CC ~nreplicas:2 ()
let test_identity_cc_tmr () = healthy_pair ~mode:Config.CC ~nreplicas:3 ()

let test_identity_cc_dmr_vm () =
  (* VM exits are the one metric workers defer; this pair exercises the
     deferred-count path on every in-window kernel crossing. *)
  healthy_pair ~mode:Config.CC ~nreplicas:2 ~vm:true ()

let test_identity_sync_vote () =
  (* Sync_vote rendezvouses on every syscall: maximum density of
     window-terminating rendezvous parks. *)
  healthy_pair ~mode:Config.LC ~nreplicas:2 ~sync_level:Config.Sync_vote ()

let test_identity_base () =
  row_test ~label:"Base"
    (fun v ->
      let cfg = Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 () in
      run_healthy (variant_cfg v cfg))
    ()

let stop_row ?traced () =
  (* The ~stop polling contract: predicates run at the same multiples of
     128 cycles under both engines, so an early stop lands on the same
     cycle. *)
  row_test ~expect_complete:false ?traced ~label:"stop"
    (fun v ->
      let cfg =
        variant_cfg v
          (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:7 ())
      in
      let sys = System.create ~config:cfg ~program:(md5 ()) in
      System.run sys ~max_cycles:80_000_000 ~stop:(fun s ->
          String.length (System.output s 0) >= 3);
      Alcotest.(check bool) "stop fired mid-run" false (System.finished sys);
      sys)
    ()

let test_identity_stop_predicate () = stop_row ()

(* --- fault injection, masking and rollback under Parallel ---------------- *)

let injected_run ?(traced = true) ?(backend = Config.Interp) ~engine ~nreplicas
    ~masking ~checkpointing () =
  let cfg =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas ~arch:x86 ~seed:11 ()) with
      masking;
      barrier_timeout = 600_000;
      checkpoint_every = (if checkpointing then 2 else 0);
      checkpoint_depth = 3;
      max_rollbacks = 8;
    }
  in
  let cfg =
    variant_cfg { v_engine = engine; v_backend = backend; v_traced = traced } cfg
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()
  in
  let sys = System.create ~config:cfg ~program in
  System.run sys ~max_cycles:60_000;
  (* Corrupt a replica signature between runs (the injection itself is
     engine-independent: both engines are quiescent here). *)
  let addr = System.sig_base sys 1 + 1 and bit = 7 in
  Mem.flip_bit (System.machine sys).Machine.mem ~addr ~bit;
  Trace.injection (System.trace sys) ~addr ~bit;
  System.run sys ~max_cycles:60_000_000;
  sys

let injected_row ?traced ~label ~nreplicas ~masking ~checkpointing expect () =
  row_test ?traced ~label
    (fun v ->
      let sys =
        injected_run ~traced:v.v_traced ~backend:v.v_backend
          ~engine:v.v_engine ~nreplicas ~masking ~checkpointing ()
      in
      Alcotest.(check bool) (label ^ ": expected outcome") true (expect sys);
      sys)
    ()

let rollback_row ?traced () =
  injected_row ?traced ~label:"rollback" ~nreplicas:2 ~masking:false
    ~checkpointing:true
    (fun a ->
      System.finished a && System.halted a = None && System.rollbacks a <> [])
    ()

let mismatch_row ?traced () =
  injected_row ?traced ~label:"mismatch" ~nreplicas:2 ~masking:false
    ~checkpointing:false
    (fun a -> System.halted a = Some System.H_mismatch)
    ()

let masking_row ?traced () =
  injected_row ?traced ~label:"masking" ~nreplicas:3 ~masking:true
    ~checkpointing:false
    (fun a -> System.halted a = None && System.downgrades a <> [])
    ()

let test_identity_rollback_recovery () = rollback_row ()
let test_identity_mismatch_failstop () = mismatch_row ()
let test_identity_tmr_masking () = masking_row ()

(* --- untraced rows: the windowed burst path ----------------------------- *)

let test_untraced_healthy () =
  List.iter
    (fun (mode, nreplicas) -> healthy_pair ~mode ~nreplicas ~traced:false ())
    [ (Config.LC, 2); (Config.LC, 3); (Config.CC, 2); (Config.CC, 3) ];
  healthy_pair ~mode:Config.CC ~nreplicas:2 ~vm:true ~traced:false ();
  healthy_pair ~mode:Config.LC ~nreplicas:2 ~sync_level:Config.Sync_vote
    ~traced:false ()

let test_untraced_faults () =
  rollback_row ~traced:false ();
  mismatch_row ~traced:false ();
  masking_row ~traced:false ()

let test_untraced_stop_predicate () = stop_row ~traced:false ()

(* --- Base-mode kernel abort ---------------------------------------------- *)

let test_base_kernel_abort () =
  (* Unreplicated runs open no windows on either engine, so a Base
     kernel abort halts the system from the run loop itself. Traced rows
     hold (Interp, Par) to the oracle, untraced rows (Blocks, Seq) and
     (Blocks, Par). *)
  let abort_row ~traced =
    row_test ~traced ~label:"Base kernel abort"
      (fun v ->
        let cfg =
          variant_cfg v
            (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ())
        in
        let sys = System.create ~config:cfg ~program:(md5 ()) in
        System.run sys ~max_cycles:20_000;
        (* Flip a high frame-number bit of the first data page's PTE, so
           it points outside physical memory (the system is quiescent
           between runs on every engine). *)
        let open Rcoe_kernel.Layout in
        let pt = (System.layout sys).partitions.(0).pt_base in
        Mem.flip_bit (System.machine sys).Machine.mem
          ~addr:(pt + (va_data / page_size))
          ~bit:28;
        System.run sys ~max_cycles:80_000_000;
        (match System.halted sys with
        | Some (System.H_kernel_exception _) -> ()
        | _ -> Alcotest.fail "expected a kernel-exception halt");
        sys)
      ()
  in
  abort_row ~traced:true;
  abort_row ~traced:false

let test_untraced_sliced () =
  (* Loadgen drives a system in 400-cycle [max_cycles] slices: every
     slice boundary caps a window, and the run resumed in the next call
     must continue exactly where per-cycle stepping would. *)
  row_test ~traced:false ~label:"sliced"
    (fun v ->
      let cfg =
        variant_cfg v
          (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:7 ())
      in
      let sys = System.create ~config:cfg ~program:(md5 ()) in
      let slices = ref 0 in
      while
        (not (System.finished sys)) && System.halted sys = None
        && !slices < 200_000
      do
        incr slices;
        System.run sys ~max_cycles:400
      done;
      sys)
    ()

let suite =
  [
    Alcotest.test_case "barrier: create validation" `Quick
      test_barrier_validation;
    Alcotest.test_case "barrier: single party" `Quick test_barrier_single_party;
    Alcotest.test_case "barrier: two-domain rendezvous" `Quick
      test_barrier_rendezvous;
    Alcotest.test_case "barrier: many generations" `Quick
      test_barrier_reuse_many_generations;
    Alcotest.test_case "parallel eligibility lint" `Quick
      test_parallel_ineligibility;
    Alcotest.test_case "identity: LC-DMR" `Quick test_identity_lc_dmr;
    Alcotest.test_case "identity: LC-TMR" `Quick test_identity_lc_tmr;
    Alcotest.test_case "identity: CC-DMR" `Quick test_identity_cc_dmr;
    Alcotest.test_case "identity: CC-TMR" `Quick test_identity_cc_tmr;
    Alcotest.test_case "identity: CC-DMR under VM" `Quick
      test_identity_cc_dmr_vm;
    Alcotest.test_case "identity: Sync_vote rendezvous density" `Quick
      test_identity_sync_vote;
    Alcotest.test_case "identity: Base mode" `Quick test_identity_base;
    Alcotest.test_case "identity: stop predicate" `Quick
      test_identity_stop_predicate;
    Alcotest.test_case "identity: rollback recovery" `Quick
      test_identity_rollback_recovery;
    Alcotest.test_case "identity: mismatch fail-stop" `Quick
      test_identity_mismatch_failstop;
    Alcotest.test_case "identity: TMR masking downgrade" `Quick
      test_identity_tmr_masking;
    Alcotest.test_case "untraced: LC/CC x DMR/TMR, VM, Sync_vote" `Quick
      test_untraced_healthy;
    Alcotest.test_case "untraced: rollback, fail-stop, masking" `Quick
      test_untraced_faults;
    Alcotest.test_case "untraced: stop predicate" `Quick
      test_untraced_stop_predicate;
    Alcotest.test_case "untraced: 400-cycle slices" `Quick
      test_untraced_sliced;
    Alcotest.test_case "Base kernel abort, every engine and backend" `Quick
      test_base_kernel_abort;
  ]
