(* Tests for the implemented paper extensions: straggler (timeout)
   masking, replica re-integration, and PMU-based fast catch-up. *)

open Rcoe_machine
open Rcoe_core
open Rcoe_workloads

let spin_program ~loops =
  let a = Rcoe_isa.Asm.create "spin" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.for_up a Rcoe_isa.Reg.R4 ~start:0 ~stop:(Rcoe_isa.Instr.Imm loops)
    (fun () -> Rcoe_isa.Asm.nop a);
  Rcoe_isa.Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  Rcoe_isa.Asm.assemble ~entry:"main" a

let tmr_cfg ?(timeout_masking = false) () =
  {
    Config.default with
    Config.mode = Config.LC;
    nreplicas = 3;
    masking = true;
    timeout_masking;
    tick_interval = 5_000;
    barrier_timeout = 60_000;
  }

(* --- straggler masking -------------------------------------------------- *)

let test_timeout_masking_follower () =
  let sys =
    System.create
      ~config:(tmr_cfg ~timeout_masking:true ())
      ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  (System.machine sys).Machine.cores.(2).Core.halted <- true;
  System.run sys ~max_cycles:1_000_000;
  (match System.downgrades sys with
  | [ (_, 2, _) ] -> ()
  | _ -> Alcotest.fail "expected straggler 2 removed");
  Alcotest.(check bool) "system continues" true (System.halted sys = None);
  Alcotest.(check (list int)) "live" [ 0; 1 ] (System.live sys)

let test_timeout_masking_primary () =
  let sys =
    System.create
      ~config:(tmr_cfg ~timeout_masking:true ())
      ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  (System.machine sys).Machine.cores.(0).Core.halted <- true;
  System.run sys ~max_cycles:1_500_000;
  (match System.downgrades sys with
  | [ (_, 0, _) ] -> ()
  | _ -> Alcotest.fail "expected straggler 0 removed");
  Alcotest.(check int) "new primary" 1 (System.primary sys);
  Alcotest.(check bool) "system continues" true (System.halted sys = None)

let test_timeout_without_flag_halts () =
  let sys =
    System.create ~config:(tmr_cfg ()) ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  (System.machine sys).Machine.cores.(2).Core.halted <- true;
  System.run sys ~max_cycles:1_000_000;
  Alcotest.(check bool) "halts" true (System.halted sys = Some System.H_timeout)

let test_two_stragglers_halt () =
  let sys =
    System.create
      ~config:(tmr_cfg ~timeout_masking:true ())
      ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  (System.machine sys).Machine.cores.(1).Core.halted <- true;
  (System.machine sys).Machine.cores.(2).Core.halted <- true;
  System.run sys ~max_cycles:1_000_000;
  Alcotest.(check bool) "no single-straggler consensus: halt" true
    (System.halted sys = Some System.H_timeout)

let test_timeout_masking_requires_masking () =
  match
    Config.validate
      { (tmr_cfg ~timeout_masking:true ()) with Config.masking = false }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error"

(* --- detection latency on the timeout path ------------------------------- *)

let test_timeout_masking_records_detection_latency () =
  (* The downgrade taken by timeout masking must record detection
     latency just like a signature-mismatch downgrade: mark the fault
     (the core wedge) with the injection clock, then check the
     histogram gained exactly one sample spanning wedge -> downgrade. *)
  let sys =
    System.create
      ~config:(tmr_cfg ~timeout_masking:true ())
      ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  let injected_at = System.now sys in
  Rcoe_obs.Trace.injection (System.trace sys) ~addr:0 ~bit:0;
  (System.machine sys).Machine.cores.(2).Core.halted <- true;
  System.run sys ~max_cycles:1_000_000 ~stop:(fun s -> System.downgrades s <> []);
  (match System.downgrades sys with
  | [ (at, 2, _) ] -> (
      match
        Rcoe_obs.Metrics.find_histogram (System.metrics sys)
          "detect.latency_cycles"
      with
      | None -> Alcotest.fail "detect.latency_cycles not registered"
      | Some h -> (
          match Rcoe_obs.Metrics.samples h with
          | [ l ] ->
              Alcotest.(check (float 1e-9))
                "latency = downgrade - wedge"
                (float_of_int (at - injected_at))
                l
          | ls -> Alcotest.failf "expected one sample, got %d" (List.length ls)))
  | _ -> Alcotest.fail "expected straggler 2 removed");
  let kinds = List.map snd (System.events sys) in
  Alcotest.(check bool) "E_timeout logged" true
    (List.mem System.E_timeout kinds);
  Alcotest.(check bool) "E_downgrade logged" true
    (List.mem (System.E_downgrade 2) kinds);
  Alcotest.(check bool) "system continues" true (System.halted sys = None)

let test_timeout_halt_records_detection_latency () =
  (* Without the masking extension the same wedge is a fail-stop; the
     latency clock must still be consumed on the halt path. *)
  let sys =
    System.create ~config:(tmr_cfg ()) ~program:(spin_program ~loops:900_000)
  in
  System.run sys ~max_cycles:20_000;
  let injected_at = System.now sys in
  Rcoe_obs.Trace.injection (System.trace sys) ~addr:0 ~bit:0;
  (System.machine sys).Machine.cores.(2).Core.halted <- true;
  System.run sys ~max_cycles:1_000_000;
  Alcotest.(check bool) "halts" true
    (System.halted sys = Some System.H_timeout);
  match
    Rcoe_obs.Metrics.find_histogram (System.metrics sys)
      "detect.latency_cycles"
  with
  | None -> Alcotest.fail "detect.latency_cycles not registered"
  | Some h -> (
      match Rcoe_obs.Metrics.samples h with
      | [ l ] ->
          Alcotest.(check (float 1e-9))
            "latency = halt - wedge"
            (float_of_int (System.now sys - injected_at))
            l
      | ls -> Alcotest.failf "expected one sample, got %d" (List.length ls))

(* --- re-integration ------------------------------------------------------ *)

let test_reintegration_restores_tmr () =
  let sys =
    System.create ~config:(tmr_cfg ()) ~program:(spin_program ~loops:2_000_000)
  in
  System.run sys ~max_cycles:20_000;
  (* Fault replica 2 -> downgrade to DMR. *)
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 2 + 1) ~bit:5;
  System.run sys ~max_cycles:500_000
    ~stop:(fun s -> System.downgrades s <> []);
  Alcotest.(check (list int)) "DMR" [ 0; 1 ] (System.live sys);
  (* Re-admit it. *)
  (match System.request_reintegration sys ~rid:2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "request rejected: %s" e);
  System.run sys ~max_cycles:500_000
    ~stop:(fun s -> System.reintegrations s <> []);
  Alcotest.(check (list int)) "TMR again" [ 0; 1; 2 ] (System.live sys);
  (match System.reintegrations sys with
  | [ (_, 2) ] -> ()
  | _ -> Alcotest.fail "expected reintegration of 2");
  (* The re-admitted replica must be a genuine participant: run on with
     no divergence... *)
  System.run sys ~max_cycles:300_000;
  Alcotest.(check bool) "no halt after re-admission" true
    (System.halted sys = None);
  (* ...and masking works again: fault replica 1 now. *)
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 1 + 1) ~bit:6;
  System.run sys ~max_cycles:500_000
    ~stop:(fun s -> List.length (System.downgrades s) >= 2);
  Alcotest.(check (list int)) "masked again using replica 2" [ 0; 2 ]
    (System.live sys);
  Alcotest.(check bool) "still running" true (System.halted sys = None)

let test_reintegration_request_validation () =
  let sys =
    System.create ~config:(tmr_cfg ()) ~program:(spin_program ~loops:100_000)
  in
  (match System.request_reintegration sys ~rid:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "live replica must be rejected");
  match System.request_reintegration sys ~rid:7 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad rid must be rejected"

let test_reintegrated_program_completes () =
  (* The re-admitted replica executes to completion alongside the others
     (its adopted state is execution-equivalent). *)
  let sys =
    System.create ~config:(tmr_cfg ()) ~program:(spin_program ~loops:700_000)
  in
  System.run sys ~max_cycles:20_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 2 + 2) ~bit:3;
  System.run sys ~max_cycles:500_000
    ~stop:(fun s -> System.downgrades s <> []);
  (match System.request_reintegration sys ~rid:2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "request rejected: %s" e);
  System.run sys ~max_cycles:4_000_000;
  Alcotest.(check bool) "finished" true (System.finished sys);
  Alcotest.(check bool) "replica 2 finished too" true (System.replica_done sys 2)

(* --- fast catch-up --------------------------------------------------------- *)

let test_fast_catchup_reduces_bp_fires () =
  let run ~fast_catchup =
    let cfg =
      {
        Config.default with
        Config.mode = Config.CC;
        nreplicas = 2;
        fast_catchup;
        tick_interval = 20_000;
        barrier_timeout = 2_000_000;
      }
    in
    let program = Whetstone.program ~loops:60 ~branch_count:false () in
    let sys = System.create ~config:cfg ~program in
    System.run sys ~max_cycles:50_000_000;
    Alcotest.(check bool) "finished" true (System.finished sys);
    (System.counter sys "catchup.bp_fires", System.now sys)
  in
  let slow_fires, slow_cycles = run ~fast_catchup:false in
  let fast_fires, fast_cycles = run ~fast_catchup:true in
  Alcotest.(check bool)
    (Printf.sprintf "fewer debug exceptions (%d -> %d)" slow_fires fast_fires)
    true
    (fast_fires <= slow_fires);
  Alcotest.(check bool)
    (Printf.sprintf "not slower (%d -> %d cycles)" slow_cycles fast_cycles)
    true
    (fast_cycles <= slow_cycles + (slow_cycles / 10))

let test_fast_catchup_still_correct () =
  (* Same final state with and without the optimisation. *)
  let out ~fast_catchup =
    let cfg =
      {
        Config.default with
        Config.mode = Config.CC;
        nreplicas = 2;
        fast_catchup;
        tick_interval = 10_000;
      }
    in
    let program =
      Md5sum.program ~message_words:48 ~iters:2 ~seed:4 ~branch_count:false ()
    in
    let sys = System.create ~config:cfg ~program in
    System.run sys ~max_cycles:50_000_000;
    (System.halted sys, System.output sys 0, System.output sys 1)
  in
  let h1, a1, b1 = out ~fast_catchup:false in
  let h2, a2, b2 = out ~fast_catchup:true in
  Alcotest.(check bool) "no halts" true (h1 = None && h2 = None);
  Alcotest.(check string) "correct digests (off)" ".." a1;
  Alcotest.(check string) "correct digests (on)" ".." a2;
  Alcotest.(check string) "replicas agree (off)" a1 b1;
  Alcotest.(check string) "replicas agree (on)" a2 b2

let suite =
  [
    Alcotest.test_case "timeout masking: follower" `Quick
      test_timeout_masking_follower;
    Alcotest.test_case "timeout masking: primary" `Quick
      test_timeout_masking_primary;
    Alcotest.test_case "timeout without flag halts" `Quick
      test_timeout_without_flag_halts;
    Alcotest.test_case "two stragglers halt" `Quick test_two_stragglers_halt;
    Alcotest.test_case "timeout masking requires masking" `Quick
      test_timeout_masking_requires_masking;
    Alcotest.test_case "timeout masking records detection latency" `Quick
      test_timeout_masking_records_detection_latency;
    Alcotest.test_case "timeout halt records detection latency" `Quick
      test_timeout_halt_records_detection_latency;
    Alcotest.test_case "reintegration restores TMR" `Slow
      test_reintegration_restores_tmr;
    Alcotest.test_case "reintegration request validation" `Quick
      test_reintegration_request_validation;
    Alcotest.test_case "reintegrated replica completes" `Slow
      test_reintegrated_program_completes;
    Alcotest.test_case "fast catch-up reduces debug exceptions" `Slow
      test_fast_catchup_reduces_bp_fires;
    Alcotest.test_case "fast catch-up preserves results" `Slow
      test_fast_catchup_still_correct;
  ]
