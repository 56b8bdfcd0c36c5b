(* Differential suite for the block-compiled execution backend
   ([Rcoe_machine.Blockc]): the interpreter is the oracle, and [Blocks]
   must be bit-for-bit and cycle-for-cycle identical to it — final
   cycle, outputs, sync stats, metrics, event logs and cycle-stamped
   trace events — across LC/CC x DMR/TMR on both engines, with and
   without exception barriers (the latter take no windows, only the
   quiet-cycle skip), under fault injection with rollback recovery,
   through the ingress-checksum drop path, and over a seeded sample of
   generated configurations. Plus the backend-specific hazards: a
   twin-core lockstep run against [Core.step] (including a breakpoint
   planted on a compiled block and the bp_suppress single-step resume),
   an interrupt that lands mid-[Rep_movs] under CC catch-up, and the
   self-modifying-code invalidation regression through the
   [code_patch] syscall. *)

open Rcoe_machine
open Rcoe_kernel
open Rcoe_isa
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics
module Reqtrace = Rcoe_obs.Reqtrace
module Json = Rcoe_obs.Json
module Outcome = Rcoe_faults.Outcome

let x86 = Arch.X86

(* --- twin-core lockstep against the oracle ------------------------------ *)

(* Two identical kernels on two identical machines, one per backend,
   stepped strictly in lockstep: after every single cycle the step
   results and the full architectural core state must agree. This is
   the finest-grained oracle check — a divergence surfaces at the exact
   cycle it happens, not at the end of a run. *)

let lockstep_program =
  let a = Asm.create "lockstep" in
  Asm.space a "buf" 16;
  Asm.label a "main";
  Asm.movi a Reg.R4 0;
  Asm.la a Reg.R5 "buf";
  Asm.for_up a Reg.R7 ~start:0 ~stop:(Instr.Imm 40) (fun () ->
      Asm.label a "hot";
      Asm.addi a Reg.R4 Reg.R4 3;
      Asm.andi a Reg.R8 Reg.R4 15;
      Asm.add a Reg.R8 Reg.R8 Reg.R5;
      Asm.st a Reg.R8 Reg.R4 0;
      Asm.ld a Reg.R6 Reg.R8 0;
      Asm.push a Reg.R6;
      Asm.pop a Reg.R6;
      Asm.xori a Reg.R4 Reg.R4 0x11);
  Asm.andi a Reg.R0 Reg.R4 15;
  Asm.addi a Reg.R0 Reg.R0 65;
  Asm.syscall a Syscall.sys_putchar;
  Asm.syscall a Syscall.sys_exit;
  Asm.assemble ~entry:"main" a

let null_callbacks =
  { Kernel.cb_info = (fun _ _ -> 0); cb_kernel_update = (fun _ _ -> ()) }

let mk_twin backend =
  let lay = Layout.compute ~nreplicas:1 ~user_words:16384 in
  let machine =
    Machine.create ~profile:Arch.x86 ~mem_words:lay.Layout.total_words
      ~ncores:1 ~seed:5 ()
  in
  let k =
    Kernel.create ~backend ~machine ~rid:0 ~core_id:0 ~layout:lay
      ~program:lockstep_program ~callbacks:null_callbacks ()
  in
  Kernel.setup_address_space k;
  ignore (Kernel.spawn k ~entry:lockstep_program.Program.entry ~arg:0);
  Kernel.start k;
  (machine, k)

let check_cores_equal ~cycle ca cb =
  let fail what = Alcotest.failf "lockstep diverged at cycle %d: %s" cycle what in
  if ca.Core.ip <> cb.Core.ip then fail "ip";
  if ca.Core.cycles <> cb.Core.cycles then fail "cycles";
  if ca.Core.instret <> cb.Core.instret then fail "instret";
  if ca.Core.stall <> cb.Core.stall then fail "stall";
  if ca.Core.bus_wait <> cb.Core.bus_wait then fail "bus_wait";
  if ca.Core.hw_branches <> cb.Core.hw_branches then fail "hw_branches";
  if ca.Core.last_was_cntinc <> cb.Core.last_was_cntinc then fail "cntinc flag";
  if ca.Core.bp_suppress <> cb.Core.bp_suppress then fail "bp_suppress";
  if ca.Core.halted <> cb.Core.halted then fail "halted";
  if ca.Core.regs <> cb.Core.regs then fail "registers";
  if ca.Core.fregs <> cb.Core.fregs then fail "fp registers"

let test_lockstep_oracle () =
  let ma, ka = mk_twin Blockc.Interp and mb, kb = mk_twin Blockc.Blocks in
  let ca = Kernel.core ka and cb = Kernel.core kb in
  let hot = Program.label_addr lockstep_program "hot" in
  let bp_fired = ref 0 and suppressed = ref 0 in
  let exited = ref false in
  let cycle = ref 0 in
  while (not !exited) && !cycle < 20_000 do
    incr cycle;
    Machine.tick ma;
    Machine.tick mb;
    let ra = Kernel.step ka and rb = Kernel.step kb in
    if ra <> rb then
      Alcotest.failf "lockstep diverged at cycle %d: step results differ"
        !cycle;
    check_cores_equal ~cycle:!cycle ca cb;
    (match ra with
    | Core.Ran -> ()
    | Core.Event (Core.Ev_syscall n) ->
        if n = Syscall.sys_exit then exited := true
        else begin
          ignore (Kernel.handle_syscall ka n);
          ignore (Kernel.handle_syscall kb n)
        end
    | Core.Event Core.Ev_breakpoint ->
        (* The engine's single-step resume pair: suppress, step past,
           let the re-arm logic clear the flag — on both backends. *)
        incr bp_fired;
        ca.Core.bp_suppress <- true;
        cb.Core.bp_suppress <- true;
        incr suppressed;
        if !bp_fired >= 2 then begin
          ca.Core.bp <- None;
          cb.Core.bp <- None
        end
    | Core.Event (Core.Ev_fault _) ->
        Alcotest.failf "unexpected fault at cycle %d" !cycle
    | Core.Event Core.Ev_halt -> exited := true);
    (* Plant a breakpoint on the (by now compiled) loop body mid-run. *)
    if !cycle = 120 then begin
      ca.Core.bp <- Some hot;
      cb.Core.bp <- Some hot
    end
  done;
  Alcotest.(check bool) "program completed" true !exited;
  Alcotest.(check bool)
    (Printf.sprintf "breakpoint on compiled block fired (%d)" !bp_fired)
    true (!bp_fired >= 2);
  Alcotest.(check bool) "single-step resume exercised" true (!suppressed >= 2);
  Alcotest.(check string) "same console output"
    (Buffer.contents (Kernel.output ka))
    (Buffer.contents (Kernel.output kb));
  (* The Blocks twin actually compiled something. *)
  match Kernel.block_cache kb with
  | None -> Alcotest.fail "Blocks kernel has no cache"
  | Some bc ->
      let st = Blockc.stats bc in
      Alcotest.(check bool) "pages compiled" true (st.Blockc.pages_decoded >= 1);
      Alcotest.(check bool) "blocks discovered" true
        (st.Blockc.blocks_compiled >= 3)

(* --- bursts against per-cycle steps, on one core -------------------------- *)

let bus_stalls evs =
  List.length
    (List.filter
       (fun e -> match e.Trace.body with Trace.Bus_stall _ -> true | _ -> false)
       evs)

(* One traced core on a starved bus lane, run twice: per cycle on the
   interpreter ([Machine.tick] + [Kernel.step]), and on [Blocks] in
   [Blockc.run] bursts cut at an odd fuel, with [~at] moving the machine
   clock the way the run loop's skip does. Bus-busy retries flush stall
   spans inside the bursts and jitter stalls are skipped in one step,
   sometimes across a fuel cut. Both sides get the twin-core test's
   breakpoint: planted on [hot] at cycle 120, resumed through
   [bp_suppress], cleared after two fires; a burst must stop on the
   cycle the breakpoint fires. Clocks, core state, the cycles of the
   fires and the trace, [bp_fire] stamps included, must agree. An
   unreplicated lane keeps the whole bus rate and never stalls under
   the shipped profiles, so only this test reaches a flush from a
   burst on the machine clock. *)
let test_burst_vs_steps () =
  let mk backend =
    let lay = Layout.compute ~nreplicas:1 ~user_words:16384 in
    let trace = Trace.create { Trace.capacity = 1 lsl 16 } in
    let machine =
      Machine.create ~trace
        ~profile:{ Arch.x86 with Arch.bus_rate = 0.1 }
        ~mem_words:lay.Layout.total_words ~ncores:1 ~seed:5 ()
    in
    let k =
      Kernel.create ~backend ~machine ~rid:0 ~core_id:0 ~layout:lay
        ~program:lockstep_program ~callbacks:null_callbacks ()
    in
    Kernel.setup_address_space k;
    ignore (Kernel.spawn k ~entry:lockstep_program.Program.entry ~arg:0);
    Kernel.start k;
    (machine, k, trace)
  in
  let hot = Program.label_addr lockstep_program "hot" in
  let plant_at = 120 in
  (* Handle one core event at cycle [now]: [true] once the program
     exited. [fires] collects the breakpoint cycles. *)
  let on_event k fires ~now = function
    | Core.Ev_syscall n when n = Syscall.sys_exit -> true
    | Core.Ev_syscall n ->
        ignore (Kernel.handle_syscall k n);
        false
    | Core.Ev_breakpoint ->
        let core = Kernel.core k in
        fires := now :: !fires;
        core.Core.bp_suppress <- true;
        if List.length !fires >= 2 then core.Core.bp <- None;
        false
    | _ -> Alcotest.fail "unexpected core event"
  in
  let ma, ka, ta = mk Blockc.Interp and mb, kb, tb = mk Blockc.Blocks in
  let fires_a = ref [] and fires_b = ref [] in
  let exited = ref false in
  while not !exited do
    Machine.tick ma;
    (match Kernel.step ka with
    | Core.Ran -> ()
    | Core.Event ev -> exited := on_event ka fires_a ~now:ma.Machine.now ev);
    if ma.Machine.now = plant_at then (Kernel.core ka).Core.bp <- Some hot
  done;
  let bc = Option.get (Kernel.block_cache kb) and cb = Kernel.core kb in
  let exited = ref false in
  while not !exited do
    let s = mb.Machine.now in
    let fuel = if s < plant_at then min 37 (plant_at - s) else 37 in
    let before = cb.Core.cycles in
    let ev =
      Blockc.run bc ~fuel ~at:(fun k -> mb.Machine.now <- s + k)
    in
    mb.Machine.now <- s + (cb.Core.cycles - before);
    Option.iter (fun ev -> exited := on_event kb fires_b ~now:mb.Machine.now ev) ev;
    if mb.Machine.now = plant_at then cb.Core.bp <- Some hot
  done;
  Alcotest.(check int) "final cycle" ma.Machine.now mb.Machine.now;
  check_cores_equal ~cycle:ma.Machine.now (Kernel.core ka) cb;
  Alcotest.(check string) "same console output"
    (Buffer.contents (Kernel.output ka))
    (Buffer.contents (Kernel.output kb));
  Alcotest.(check (list int)) "breakpoint fire cycles" !fires_a !fires_b;
  Alcotest.(check int) "two fires" 2 (List.length !fires_a);
  let ea = Trace.events ta and eb = Trace.events tb in
  let stalls = bus_stalls ea in
  Alcotest.(check bool)
    (Printf.sprintf "bus-stall spans flushed (%d)" stalls)
    true (stalls >= 50);
  Alcotest.(check bool) "same trace events" true (ea = eb)

(* --- full-system sweep: LC/CC x DMR/TMR x Seq/Par ----------------------- *)

let backend_cfg ?(traced = true) backend cfg =
  {
    cfg with
    Config.exec_backend = backend;
    trace = (if traced then Some { Trace.capacity = 1 lsl 16 } else None);
  }

let sweep_program () =
  Md5sum.program ~message_words:48 ~iters:4 ~seed:2 ~branch_count:false ()

let run_sweep ?traced ?(program = sweep_program ()) cfg backend =
  let sys = System.create ~config:(backend_cfg ?traced backend cfg) ~program in
  System.run sys ~max_cycles:80_000_000;
  sys

let backend_pair ~label cfg =
  let a = run_sweep cfg Config.Interp and b = run_sweep cfg Config.Blocks in
  Alcotest.(check bool) (label ^ ": interp run completed") true
    (System.finished a || System.halted a <> None);
  Test_engine_par.check_identical ~label a b;
  (a, b)

let sweep_cfg ~mode ~nreplicas ~engine =
  {
    (Runner.config_for ~mode ~nreplicas ~arch:x86 ~seed:7 ()) with
    Config.engine;
    (* Parallel replication requires exception barriers; keep both
       engines' rows apples-to-apples. *)
    exception_barriers = (mode <> Config.Base);
  }

let test_sweep_seq () =
  List.iter
    (fun (mode, n) ->
      let label =
        Printf.sprintf "%s-%d/seq" (Config.mode_to_string mode) n
      in
      ignore
        (backend_pair ~label (sweep_cfg ~mode ~nreplicas:n ~engine:Config.Sequential)))
    [
      (Config.Base, 1);
      (Config.LC, 2);
      (Config.LC, 3);
      (Config.CC, 2);
      (Config.CC, 3);
    ]

let test_sweep_par () =
  List.iter
    (fun (mode, n) ->
      let label =
        Printf.sprintf "%s-%d/par" (Config.mode_to_string mode) n
      in
      ignore
        (backend_pair ~label (sweep_cfg ~mode ~nreplicas:n ~engine:Config.Parallel)))
    [ (Config.LC, 3); (Config.CC, 2) ]

let test_sweep_exercises_catchup () =
  (* The CC rows must actually have used breakpoints and single-steps
     on compiled blocks, or the sweep proves less than it claims. A
     short tick interval on a jittery branch-heavy workload forces the
     laggard-catch-up machinery on nearly every tick. *)
  let cfg =
    {
      (sweep_cfg ~mode:Config.CC ~nreplicas:2 ~engine:Config.Sequential) with
      Config.tick_interval = 20_000;
      barrier_timeout = 2_000_000;
    }
  in
  let program = Whetstone.program ~loops:60 ~branch_count:false () in
  let run backend =
    let sys = System.create ~config:(backend_cfg backend cfg) ~program in
    System.run sys ~max_cycles:50_000_000;
    sys
  in
  let a = run Config.Interp and b = run Config.Blocks in
  Alcotest.(check bool) "interp run completed" true (System.finished a);
  Test_engine_par.check_identical ~label:"CC-2/seq-catchup" a b;
  let count = System.counter b in
  Alcotest.(check bool) "bp fires on compiled blocks" true
    (count "catchup.bp_fires" > 0);
  Alcotest.(check bool) "single-step resumes on compiled blocks" true
    (count "catchup.single_steps" > 0)

(* --- bursts inside execution windows ------------------------------------ *)

(* Share of the replicas' simulated cycles ([nreplicas] x final cycle)
   that ran inside [Blockc.run]. *)
let burst_share sys =
  let n = (System.config sys).Config.nreplicas in
  let burst = ref 0 in
  for rid = 0 to n - 1 do
    match Kernel.block_cache (System.kernel sys rid) with
    | Some bc -> burst := !burst + (Blockc.stats bc).Blockc.burst_cycles
    | None -> ()
  done;
  float_of_int !burst /. float_of_int (n * System.now sys)

(* Replicated runs on [Blocks] burst each replica from one core event
   to the next inside execution windows, on both engines, traced or
   not, and an unreplicated run bursts its lone replica through the
   skip; each must equal the per-cycle interpreter oracle. The coverage
   check guards against a precondition slip that silently drops back
   to per-cycle stepping while every identity check stays green. *)
let burst_row ~traced ~label ?program ~min_share cfg =
  let oracle = run_sweep ~traced ?program cfg Config.Interp in
  Alcotest.(check bool) (label ^ ": oracle run completed") true
    (System.finished oracle || System.halted oracle <> None);
  List.iter
    (fun engine ->
      let b =
        run_sweep ~traced ?program { cfg with Config.engine } Config.Blocks
      in
      let tag = label ^ "/" ^ Config.engine_to_string engine in
      Test_engine_par.check_identical ~label:tag oracle b;
      let share = burst_share b in
      if share < min_share then
        Alcotest.failf "%s: bursts ran %.1f%% of replica cycles, want >= %.0f%%"
          tag (100.0 *. share) (100.0 *. min_share))
    [ Config.Sequential; Config.Parallel ];
  oracle

let whetstone () = Whetstone.program ~loops:100 ~branch_count:false ()
let cc2 () = sweep_cfg ~mode:Config.CC ~nreplicas:2 ~engine:Config.Sequential

let test_sweep_untraced () =
  let row = burst_row ~traced:false in
  ignore
    (row ~label:"CC-2 whetstone" ~program:(whetstone ()) ~min_share:0.83
       (cc2 ()));
  (* Unreplicated: one lone runner, bursting from each event to the next
     and to each preemption tick. *)
  ignore
    (row ~label:"Base md5sum" ~min_share:0.99
       (sweep_cfg ~mode:Config.Base ~nreplicas:1 ~engine:Config.Sequential));
  List.iter
    (fun (mode, n) ->
      ignore
        (row
           ~label:(Printf.sprintf "%s-%d" (Config.mode_to_string mode) n)
           ~min_share:0.0
           (sweep_cfg ~mode ~nreplicas:n ~engine:Config.Sequential)))
    [ (Config.LC, 2); (Config.LC, 3); (Config.CC, 3) ]

let test_sweep_traced () =
  (* A traced run bursts as far as an untraced one, and its trace is
     the oracle's event for event. The only event a burst emits is a
     bus-stall span, stamped at the cycle of its flush: x86 TMR lanes
     refill at 2/3 word per cycle, so a memory-bound LC-3 run flushes
     thousands of them from inside window bursts. *)
  let row = burst_row ~traced:true in
  ignore
    (row ~label:"traced CC-2 whetstone" ~program:(whetstone ())
       ~min_share:0.83 (cc2 ()));
  let oracle =
    row ~label:"traced LC-3 membw"
      ~program:(Membw.program ~buffer_words:1024 ~reps:2 ~branch_count:false ())
      ~min_share:0.7
      (sweep_cfg ~mode:Config.LC ~nreplicas:3 ~engine:Config.Sequential)
  in
  let tr = System.trace oracle in
  let evs = Trace.events tr in
  Alcotest.(check int) "ring kept every event" (Trace.total tr)
    (List.length evs);
  let stalls = bus_stalls evs in
  if stalls < 1000 then
    Alcotest.failf "traced LC-3 membw: %d bus-stall spans, want >= 1000" stalls

(* --- replicated runs without exception barriers --------------------------- *)

(* The CLI's default: without exception barriers a replicated run is not
   eligible for [Parallel], so it opens no execution windows. Its only
   fast path is the run loop's quiet-cycle skip, which runs a lone
   replica to its first event while the others stall, idle or spin at a
   barrier; cycles in which two replicas execute stay per cycle. Each
   row is traced and must equal the per-cycle interpreter, trace
   included. [slice] runs the system in [System.run] slices of that
   many cycles, so slice ends cut skips short. [min_share] is the share
   of replica cycles the skip took in [Blockc.run]. *)
let no_barrier_row ?slice ?(min_share = 0.0) ~label ~program cfg =
  let run backend =
    let sys = System.create ~config:(backend_cfg backend cfg) ~program in
    (match slice with
    | None -> System.run sys ~max_cycles:80_000_000
    | Some n ->
        while
          (not (System.finished sys))
          && System.halted sys = None
          && System.now sys < 80_000_000
        do
          System.run sys ~max_cycles:n
        done);
    sys
  in
  let a = run Config.Interp and b = run Config.Blocks in
  Alcotest.(check bool) (label ^ ": oracle run completed") true
    (System.finished a);
  Test_engine_par.check_identical ~label a b;
  let share = burst_share b in
  if share < min_share then
    Alcotest.failf "%s: stall steps ran %.1f%% of replica cycles, want >= %.0f%%"
      label (100.0 *. share) (100.0 *. min_share)

let no_barrier_cfg ?(arch = x86) ?tick_interval ~mode ~nreplicas () =
  {
    (Runner.config_for ~mode ~nreplicas ~arch ~seed:7 ?tick_interval ()) with
    Config.exception_barriers = false;
  }

let test_no_barrier_md5 () =
  (* A short tick interval, so the run goes through a few dozen rounds.
     CC-3 stays ungated: its share (about a third) barely moves when the
     lone runner is lost, so no gate there could tell. *)
  List.iter
    (fun (mode, n, min_share) ->
      no_barrier_row
        ~label:(Printf.sprintf "no-barrier %s-%d md5sum"
                  (Config.mode_to_string mode) n)
        ~program:(Test_engine_par.md5 ()) ~min_share
        (no_barrier_cfg ~tick_interval:4_000 ~mode ~nreplicas:n ()))
    [ (Config.LC, 2, 0.33); (Config.CC, 2, 0.36); (Config.CC, 3, 0.0) ]

let test_no_barrier_whetstone () =
  let cc2 = no_barrier_cfg ~mode:Config.CC ~nreplicas:2 () in
  no_barrier_row ~label:"no-barrier CC-2 whetstone" ~program:(whetstone ())
    ~min_share:0.28 cc2;
  (* Arm: 520-cycle debug exceptions, and compiler-assisted branch
     counting, so the catch-up target counts [cntinc] instructions. *)
  no_barrier_row ~label:"no-barrier Arm CC-2 whetstone"
    ~program:(Whetstone.program ~loops:100 ~branch_count:true ())
    ~min_share:0.35
    (no_barrier_cfg ~arch:Arch.Arm ~mode:Config.CC ~nreplicas:2 ());
  no_barrier_row ~label:"no-barrier CC-2 whetstone, fast catch-up"
    ~program:(whetstone ()) ~min_share:0.20
    { cc2 with Config.fast_catchup = true };
  List.iter
    (fun n ->
      no_barrier_row
        ~label:(Printf.sprintf "no-barrier CC-2 whetstone, %d-cycle slices" n)
        ~slice:n ~program:(whetstone ()) cc2)
    [ 7; 97 ]

(* --- fault injection + rollback recovery -------------------------------- *)

let test_recovery_differential () =
  List.iter
    (fun fault ->
      let run backend =
        Fault_experiments.recovery_trial ~exec_backend:backend
          ~checkpointing:true ~fault ~seed:2 ()
      in
      let oa, ra, ca, la = run Config.Interp in
      let ob, rb, cb, lb = run Config.Blocks in
      let tag =
        match fault with `Transient -> "transient" | `Persistent -> "persistent"
      in
      Alcotest.(check string) (tag ^ ": outcome") (Outcome.to_string oa)
        (Outcome.to_string ob);
      Alcotest.(check int) (tag ^ ": rollbacks") ra rb;
      Alcotest.(check int) (tag ^ ": checkpoints") ca cb;
      Alcotest.(check (list (float 0.0))) (tag ^ ": recovery latencies") la lb)
    [ `Transient; `Persistent ]

(* --- ingress-checksum drop ---------------------------------------------- *)

let test_ingress_drop_differential () =
  let run backend =
    Fault_experiments.ingress_trial ~exec_backend:backend ~mode:Config.CC
      ~n:2 ~ingress_check:true ~fault:true ~seed:3 ()
  in
  let oa, ra = run Config.Interp and ob, rb = run Config.Blocks in
  Alcotest.(check string) "outcome" (Outcome.to_string oa)
    (Outcome.to_string ob);
  Alcotest.(check int) "completions" ra.Loadgen.completed rb.Loadgen.completed;
  Alcotest.(check int) "run-phase cycles" ra.Loadgen.elapsed_cycles
    rb.Loadgen.elapsed_cycles;
  Alcotest.(check int) "outcome digest" ra.Loadgen.outcome_sorted_digest
    rb.Loadgen.outcome_sorted_digest;
  Alcotest.(check int) "ingress checks" ra.Loadgen.ingress_checked
    rb.Loadgen.ingress_checked;
  Alcotest.(check int) "ingress drops" ra.Loadgen.ingress_dropped
    rb.Loadgen.ingress_dropped;
  Alcotest.(check bool) "counters" true
    (ra.Loadgen.counters = rb.Loadgen.counters);
  Alcotest.(check bool) "the drop path actually fired" true
    (ra.Loadgen.ingress_dropped > 0)

(* A served run shaped like the [serve-ycsb] benchmark: CC-DMR with
   exception barriers (so it takes execution windows), ingress checks,
   a checkpoint every second round and a signature flip rolled back
   mid-run, under an always-on trace ring. [Blocks] on both engines
   must equal the per-cycle [Interp] run: the serve report (request
   latency, queue and ring histograms, which the NIC's [on_rx] observer
   stamps, minus the engine tag), per-request attribution and trace
   event list included. The same run without exception barriers opens
   no window, so there the quiet-cycle skip is [Blocks]' only fast
   path. *)
let test_serve_windows_differential () =
  let serve ?(barriers = true) backend engine =
    let config =
      {
        (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86
           ~with_net:true ~seed:5 ())
        with
        Config.exec_backend = backend;
        engine;
        exception_barriers = barriers;
        ingress_check = true;
        checkpoint_every = 2;
        max_rollbacks = 3;
        trace = Some { Trace.capacity = 1 lsl 16 };
      }
    in
    Loadgen.run ~config ~workload:Ycsb.A ~records:16 ~requests:80
      ~pacing:(Loadgen.Open { interval = 15_000; max_queue = 64 })
      ~gen_seed:3
      ~fault:
        {
          Loadgen.fault_after = 40;
          fault_bit = 5;
          fault_target = Loadgen.Sig_word;
        }
      ()
  in
  let report r = Json.to_string (Loadgen.report_json r ~engine:"") in
  let check_same ~tag a b =
    Alcotest.(check bool) (tag ^ ": outcome log") true
      (a.Loadgen.outcome_log = b.Loadgen.outcome_log);
    Alcotest.(check int) (tag ^ ": run-phase cycles") a.Loadgen.elapsed_cycles
      b.Loadgen.elapsed_cycles;
    Alcotest.(check bool) (tag ^ ": end signatures") true
      (a.Loadgen.end_sigs = b.Loadgen.end_sigs);
    Alcotest.(check (list (pair string int))) (tag ^ ": attribution")
      (Reqtrace.attribution a.Loadgen.rt)
      (Reqtrace.attribution b.Loadgen.rt);
    Alcotest.(check string) (tag ^ ": report") (report a) (report b);
    Test_engine_par.check_identical ~label:tag a.Loadgen.sys b.Loadgen.sys
  in
  let a = serve Config.Interp Config.Sequential in
  Alcotest.(check bool) "the flip fired" true a.Loadgen.fault_fired;
  Alcotest.(check bool) "the flip was rolled back" true
    (a.Loadgen.rollbacks >= 1);
  Alcotest.(check int) "every request completed" 96 a.Loadgen.completed;
  check_same ~tag:"serve/no-barrier"
    (serve ~barriers:false Config.Interp Config.Sequential)
    (serve ~barriers:false Config.Blocks Config.Sequential);
  (* The CLI's default serve: closed-loop, no fault, no barriers. Frames
     fall due while both replicas sit in an async round, whose quiet
     cycles the skip takes. With barriers and 4,000-cycle slices, a
     frame injected at a slice end falls due inside a rendezvous
     window. *)
  let closed ?(barriers = false) ?chunk backend =
    Loadgen.run
      ~config:
        {
          (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86
             ~with_net:true ())
          with
          Config.exec_backend = backend;
          exception_barriers = barriers;
        }
      ~workload:Ycsb.A ~records:48 ~requests:400
      ~pacing:(Loadgen.Closed { window = 8 })
      ?chunk ()
  in
  check_same ~tag:"serve/closed-loop" (closed Config.Interp)
    (closed Config.Blocks);
  check_same ~tag:"serve/closed-loop windows"
    (closed ~barriers:true ~chunk:4000 Config.Interp)
    (closed ~barriers:true ~chunk:4000 Config.Blocks);
  List.iter
    (fun engine ->
      let b = serve Config.Blocks engine in
      let tag = "serve/" ^ Config.engine_to_string engine in
      check_same ~tag a b;
      let share = burst_share b.Loadgen.sys in
      if share < 0.7 then
        Alcotest.failf "%s: bursts ran %.1f%% of replica cycles, want >= 70%%"
          tag (100.0 *. share))
    [ Config.Sequential; Config.Parallel ]

(* --- interrupt mid-Rep_movs under CC catch-up --------------------------- *)

let test_mid_rep_movs_differential () =
  (* A rep-string-heavy workload with a short tick interval: IPIs land
     while a replica sits mid-[Rep_movs], forcing the step-past-and-
     defer-publish path (paper Section III-D) through the compiled
     backend's oracle fallback. *)
  let cfg =
    Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:9
      ~tick_interval:2_000 ()
  in
  let program = Membw.program ~buffer_words:1024 ~reps:3 ~branch_count:false () in
  let run backend =
    let sys = System.create ~config:(backend_cfg backend cfg) ~program in
    System.run sys ~max_cycles:80_000_000;
    sys
  in
  let a = run Config.Interp and b = run Config.Blocks in
  Alcotest.(check bool) "finished" true (System.finished a);
  Test_engine_par.check_identical ~label:"mid-rep" a b;
  let rep_steps sys = System.counter sys "catchup.rep_steps" in
  Alcotest.(check bool) "an IPI landed mid-rep-string" true (rep_steps a > 0)

(* --- self-modifying code: invalidation regression ------------------------ *)

(* A function returns a constant baked into a [Mov]; the program calls
   it, patches that very instruction through the [code_patch] syscall,
   and calls it again. A stale pre-decoded closure would keep returning
   the old constant — output "BB" instead of "BJ" — so this pins the
   patch -> invalidate -> recompile chain. Two-pass assembly: the slot
   address is read off a first assembly of the identical program. *)

let smc_program ~slot_addr =
  let a = Asm.create "smc" in
  Asm.label a "main";
  Asm.jal a "f";
  Asm.addi a Reg.R0 Reg.R0 65;
  Asm.syscall a Syscall.sys_putchar;
  Asm.movi a Reg.R0 slot_addr;
  Asm.movi a Reg.R1 1 (* kind: Mov rd, #imm *);
  Asm.movi a Reg.R2 0 (* rd = r0 *);
  Asm.movi a Reg.R3 9;
  Asm.syscall a Syscall.sys_code_patch;
  Asm.jal a "f";
  Asm.addi a Reg.R0 Reg.R0 65;
  Asm.syscall a Syscall.sys_putchar;
  Asm.syscall a Syscall.sys_exit;
  Asm.label a "f";
  Asm.label a "slot";
  Asm.movi a Reg.R0 1;
  Asm.ret a;
  Asm.assemble ~entry:"main" a

let test_smc_invalidation () =
  let slot_addr = Program.label_addr (smc_program ~slot_addr:0) "slot" in
  let program = smc_program ~slot_addr in
  Alcotest.(check int) "two-pass slot address stable" slot_addr
    (Program.label_addr program "slot");
  let run backend =
    let cfg =
      backend_cfg backend
        (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ())
    in
    let sys = System.create ~config:cfg ~program in
    System.run sys ~max_cycles:2_000_000;
    sys
  in
  let a = run Config.Interp and b = run Config.Blocks in
  Alcotest.(check bool) "finished" true (System.finished a);
  Test_engine_par.check_identical ~label:"smc" a b;
  Alcotest.(check string) "patched constant visible" "BJ"
    (System.output b 0);
  match Kernel.block_cache (System.kernel b 0) with
  | None -> Alcotest.fail "Blocks run has no cache"
  | Some bc ->
      let st = Blockc.stats bc in
      Alcotest.(check bool) "patch invalidated the page" true
        (st.Blockc.invalidations >= 1);
      Alcotest.(check bool) "page recompiled after the patch" true
        (st.Blockc.pages_decoded >= 2)

(* --- generated configurations --------------------------------------------- *)

(* A seeded random walk over the configuration space the hand-picked rows
   above sample: mode, replica count, platform, exception barriers, a
   small workload, tick interval, barrier timeout, sync level, VM,
   fast catch-up, checkpoints (with masking on TMR), a signature flip at
   a drawn cycle, replay detection on Base, and the [System.run] slice
   length. A drawn configuration that [Config.validate] rejects must say
   why; every other one runs per cycle on [Interp] and on [Blocks] — on
   [Sequential], and on [Parallel] too when the configuration admits it
   and the run is not sliced ([Engine_par] spawns its worker domains in
   every [System.run] call) — and the runs must be identical, trace
   included. A failure prints the drawn case, [Config.seed] included. *)

type gen_case = {
  g_cfg : Config.t;
  g_workload : [ `Md5 of int * int | `Whet of int | `Membw of int | `Dhry of int ];
  g_flip : (int * int * int) option;  (* cycle, replica, bit *)
  g_slice : int option;
}

let gen_program c =
  let branch_count = Wl.branch_count_for c.g_cfg.Config.arch in
  match c.g_workload with
  | `Md5 (message_words, iters) ->
      Md5sum.program ~message_words ~iters ~seed:3 ~branch_count ()
  | `Whet loops -> Whetstone.program ~loops ~branch_count ()
  | `Membw buffer_words ->
      Membw.program ~buffer_words ~reps:1 ~branch_count ()
  | `Dhry loops -> Dhrystone.program ~loops ~branch_count ()

let gen_case_to_string c =
  let cfg = c.g_cfg in
  let b = function true -> "y" | false -> "n" in
  Printf.sprintf
    "%s-%d %s seed=%d barriers=%s workload=%s tick=%d timeout=%d sync=%s \
     vm=%s fast_catchup=%s ckpt_every=%d masking=%s detection=%s flip=%s \
     slice=%s"
    (Config.mode_to_string cfg.Config.mode)
    cfg.Config.nreplicas
    (Arch.to_string cfg.Config.arch)
    cfg.Config.seed (b cfg.Config.exception_barriers)
    (match c.g_workload with
    | `Md5 (w, i) -> Printf.sprintf "md5sum(%d words x %d)" w i
    | `Whet l -> Printf.sprintf "whetstone(%d)" l
    | `Membw w -> Printf.sprintf "membw(%d words)" w
    | `Dhry l -> Printf.sprintf "dhrystone(%d)" l)
    cfg.Config.tick_interval cfg.Config.barrier_timeout
    (Config.sync_level_to_string cfg.Config.sync_level)
    (b cfg.Config.vm) (b cfg.Config.fast_catchup) cfg.Config.checkpoint_every
    (b cfg.Config.masking)
    (match cfg.Config.detection with
    | Config.Lockstep -> "lockstep"
    | Config.Replay -> "replay")
    (match c.g_flip with
    | Some (at, rid, bit) -> Printf.sprintf "r%d bit %d @%d" rid bit at
    | None -> "none")
    (match c.g_slice with Some n -> string_of_int n | None -> "none")

let gen_case =
  QCheck.Gen.(
    let* mode = frequency [ (1, return Config.Base); (2, return Config.LC);
                            (3, return Config.CC) ] in
    let* nreplicas = if mode = Config.Base then return 1 else int_range 2 3 in
    let* arch = oneofl [ Arch.X86; Arch.Arm ] in
    let* seed = int_range 1 999 in
    let* exception_barriers = bool in
    let* g_workload =
      oneof
        [
          map2 (fun w i -> `Md5 (w, i)) (int_range 16 48) (int_range 1 3);
          map (fun l -> `Whet l) (int_range 4 16);
          map (fun w -> `Membw w) (int_range 128 512);
          map (fun l -> `Dhry l) (int_range 40 200);
        ]
    in
    let* tick_interval = oneofl [ 2_000; 4_000; 10_000; 50_000 ] in
    (* The first choice is below the validation floor of a tenth of the
       tick interval; the short ones time rounds out. *)
    let* barrier_timeout =
      frequency
        [
          (1, return (tick_interval / 20));
          (2, return 3_000);
          (3, return 40_000);
          (3, return 400_000);
        ]
    in
    let* sync_level =
      oneofl [ Config.Sync_none; Config.Sync_args; Config.Sync_vote ]
    in
    let* vm = frequency [ (5, return false); (1, return true) ] in
    let* fast_catchup = bool in
    let* checkpointing = if mode = Config.Base then return false else bool in
    let* masking = bool in
    let* replay = bool in
    let* g_flip =
      opt
        (triple (int_range 1_000 150_000) (int_range 0 (nreplicas - 1))
           (int_range 0 31))
    in
    let* g_slice =
      frequency
        [ (3, return None); (1, return (Some 7)); (1, return (Some 97));
          (1, return (Some 400)) ]
    in
    let base =
      Runner.config_for ~mode ~nreplicas ~arch ~sync_level ~vm ~seed
        ~tick_interval ()
    in
    return
      {
        g_cfg =
          {
            base with
            Config.barrier_timeout;
            exception_barriers;
            fast_catchup;
            checkpoint_every = (if checkpointing then 2 else 0);
            masking = masking && nreplicas >= 3;
            detection =
              (if replay && mode = Config.Base then Config.Replay
               else Config.Lockstep);
            trace = Some { Trace.capacity = 1 lsl 14 };
          };
        g_workload;
        g_flip;
        g_slice;
      })

(* The components two systems are compared on after every slice, each
   with a predicate that holds when the systems agree on it: clock, halt
   and completion, then per replica its scheduler state, its core's
   architectural state, its bus lane's credit, its signature words and
   its output. *)
let system_components =
  [
    ("clock", fun a b -> System.now a = System.now b);
    ("halt", fun a b -> System.halted a = System.halted b);
    ("finished", fun a b -> System.finished a = System.finished b);
  ]

let replica_components =
  let core sys rid = Kernel.core (System.kernel sys rid) in
  let on f a b rid = f (core a rid) = f (core b rid) in
  let lane sys rid =
    Bus.state (Machine.bus_lane (System.machine sys) ~core_id:rid)
  in
  let sign sys rid =
    Signature.read (System.machine sys).Machine.mem
      ~base:(System.sig_base sys rid)
  in
  [
    ( "state",
      fun a b rid ->
        System.replica_state_name a rid = System.replica_state_name b rid );
    ("ip", on (fun c -> c.Core.ip));
    ("stall", on (fun c -> c.Core.stall));
    ("cycles", on (fun c -> c.Core.cycles));
    ("instret", on (fun c -> c.Core.instret));
    ("regs", on (fun c -> c.Core.regs));
    ( "fregs",
      fun a b rid ->
        compare (core a rid).Core.fregs (core b rid).Core.fregs = 0 );
    ("bp", on (fun c -> c.Core.bp));
    ("halted", on (fun c -> c.Core.halted));
    ("bus lane credit", fun a b rid -> compare (lane a rid) (lane b rid) = 0);
    ("signature", fun a b rid -> sign a rid = sign b rid);
    ("output", fun a b rid -> System.output a rid = System.output b rid);
  ]

(* The first component in which [a] and [b] differ, if any. *)
let first_difference a b =
  match List.find_opt (fun (_, same) -> not (same a b)) system_components with
  | Some (what, _) -> Some what
  | None ->
      let rec replica rid =
        if rid >= (System.config a).Config.nreplicas then None
        else
          match
            List.find_opt (fun (_, same) -> not (same a b rid))
              replica_components
          with
          | Some (what, _) -> Some (Printf.sprintf "r%d %s" rid what)
          | None -> replica (rid + 1)
      in
      replica 0

(* Run [c] to completion, a halt or the cycle cap, flipping the drawn
   bit of the drawn replica's signature once the clock reaches the
   drawn cycle, on every system of [systems] at once: in [g_slice]-cycle
   slices when drawn, else in one [System.run] per leg. After each slice
   the systems are compared ([first_difference]), and the first
   difference fails the test with the drawn case, the slice's cycle
   range and the differing component. *)
let gen_run_together c systems =
  let lead = List.hd systems in
  let run_to limit =
    while
      (not (System.finished lead))
      && System.halted lead = None
      && System.now lead < limit
    do
      let from = System.now lead in
      let left = limit - from in
      let max_cycles =
        match c.g_slice with Some n -> min n left | None -> left
      in
      List.iter (fun sys -> System.run sys ~max_cycles) systems;
      List.iter
        (fun sys ->
          match first_difference lead sys with
          | Some what ->
              Alcotest.failf "%s: the runs differ after the slice of cycles \
                              %d..%d: %s"
                (gen_case_to_string c) (from + 1) (System.now lead) what
          | None -> ())
        (List.tl systems)
    done
  in
  (match c.g_flip with
  | Some (at, rid, bit) ->
      run_to at;
      List.iter
        (fun sys ->
          let addr = System.sig_base sys rid + 1 in
          Mem.flip_bit (System.machine sys).Machine.mem ~addr ~bit;
          Trace.injection (System.trace sys) ~addr ~bit)
        systems
  | None -> ());
  run_to 2_000_000

let gen_system c ~backend ~engine =
  System.create
    ~config:{ c.g_cfg with Config.exec_backend = backend; engine }
    ~program:(gen_program c)

let generated_seed = 20_261_019

let qcheck_generated_differential =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "generated configurations: Interp = Blocks (seed %d)"
         generated_seed)
    ~count:100
    (QCheck.make ~print:gen_case_to_string gen_case)
    (fun c ->
      match Config.validate c.g_cfg with
      | Error reason -> String.trim reason <> ""
      | Ok () ->
          let label = gen_case_to_string c in
          let sys = gen_system c ~engine:Config.Sequential in
          let oracle = sys ~backend:Config.Interp
          and blocks = sys ~backend:Config.Blocks in
          (* A sliced case runs both systems side by side and compares
             them after every slice; an unsliced one compares the
             finished runs. *)
          (match c.g_slice with
          | Some _ -> gen_run_together c [ oracle; blocks ]
          | None ->
              gen_run_together c [ oracle ];
              gen_run_together c [ blocks ]);
          Test_engine_par.check_identical ~label oracle blocks;
          if
            Config.validate { c.g_cfg with Config.engine = Config.Parallel }
            = Ok ()
            && c.g_slice = None
          then begin
            let par =
              gen_system c ~backend:Config.Blocks ~engine:Config.Parallel
            in
            gen_run_together c [ par ];
            Test_engine_par.check_identical ~label oracle par
          end;
          true)

(* --- generated served runs ------------------------------------------------ *)

(* A seeded random walk over served runs, the NIC's paths the generated
   configurations above do not reach: mode and replica count, platform,
   exception barriers, the ingress check, closed or open pacing, a fault
   (none, a signature flip under checkpoints, or a flipped RX-ring
   frame), replay detection on Base, and the sizes of the load and the
   [Loadgen] chunk. The runs cross the NIC horizon, the device tick
   before an event is handled, and the ingress path. A drawn
   configuration [Config.validate] rejects must say why; every other one
   serves on [Interp] and on [Blocks], and on [Parallel] when the
   configuration admits it, and the report, the outcome digest, the end
   signatures and the final cycle must be identical. *)

type serve_case = {
  sv_cfg : Config.t;
  sv_pacing : Loadgen.pacing;
  sv_fault : Loadgen.fault_spec option;
  sv_records : int;
  sv_requests : int;
  sv_chunk : int;
}

let serve_case_to_string c =
  let cfg = c.sv_cfg in
  let b = function true -> "y" | false -> "n" in
  Printf.sprintf
    "%s-%d %s seed=%d barriers=%s ingress=%s detection=%s ckpt_every=%d \
     pacing=%s fault=%s records=%d requests=%d chunk=%d"
    (Config.mode_to_string cfg.Config.mode)
    cfg.Config.nreplicas
    (Arch.to_string cfg.Config.arch)
    cfg.Config.seed (b cfg.Config.exception_barriers)
    (b cfg.Config.ingress_check)
    (match cfg.Config.detection with
    | Config.Lockstep -> "lockstep"
    | Config.Replay -> "replay")
    cfg.Config.checkpoint_every
    (match c.sv_pacing with
    | Loadgen.Closed { window } -> Printf.sprintf "closed(%d)" window
    | Loadgen.Open { interval; max_queue } ->
        Printf.sprintf "open(%d, queue %d)" interval max_queue)
    (match c.sv_fault with
    | None -> "none"
    | Some f ->
        Printf.sprintf "%s bit %d after %d"
          (match f.Loadgen.fault_target with
          | Loadgen.Sig_word -> "sig-word"
          | Loadgen.Dma_frame -> "dma-frame")
          f.Loadgen.fault_bit f.Loadgen.fault_after)
    c.sv_records c.sv_requests c.sv_chunk

let serve_case =
  QCheck.Gen.(
    let* mode = frequency [ (1, return Config.Base); (2, return Config.LC);
                            (3, return Config.CC) ] in
    let* nreplicas = if mode = Config.Base then return 1 else int_range 2 3 in
    let* arch = oneofl [ Arch.X86; Arch.Arm ] in
    let* seed = int_range 1 999 in
    let* exception_barriers = bool in
    let* ingress_check = bool in
    let* sv_pacing =
      oneof
        [
          map (fun window -> Loadgen.Closed { window }) (int_range 1 8);
          map
            (fun interval -> Loadgen.Open { interval; max_queue = 16 })
            (oneofl [ 4_000; 15_000; 40_000 ]);
        ]
    in
    let* replay = bool in
    let* sv_records = int_range 8 32 in
    let* sv_requests = int_range 32 160 in
    let* sv_chunk = oneofl [ 400; 4_000 ] in
    let* fault_target =
      frequency
        [ (2, return None); (1, return (Some Loadgen.Sig_word));
          (1, return (Some Loadgen.Dma_frame)) ]
    in
    let* fault_after = int_range 0 (sv_requests / 2) in
    let* fault_bit = int_range 0 29 in
    let detection =
      if replay && mode = Config.Base then Config.Replay else Config.Lockstep
    in
    let base =
      Runner.config_for ~mode ~nreplicas ~arch ~with_net:true ~seed ()
    in
    return
      {
        sv_cfg =
          {
            base with
            Config.exception_barriers;
            ingress_check;
            detection;
            checkpoint_every =
              (if
                 fault_target = Some Loadgen.Sig_word
                 && detection = Config.Lockstep
               then 2
               else 0);
            max_rollbacks = 3;
          };
        sv_pacing;
        sv_fault =
          Option.map
            (fun fault_target ->
              { Loadgen.fault_after; fault_bit; fault_target })
            fault_target;
        sv_records;
        sv_requests;
        sv_chunk;
      })

let serve_run c ~backend ~engine =
  Loadgen.run
    ~config:{ c.sv_cfg with Config.exec_backend = backend; engine }
    ~workload:Ycsb.A ~records:c.sv_records ~requests:c.sv_requests
    ~pacing:c.sv_pacing ~chunk:c.sv_chunk ?fault:c.sv_fault ()

let serve_seed = 20_261_020

let qcheck_generated_serves =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "generated served runs: Interp = Blocks = Parallel (seed %d)"
         serve_seed)
    ~count:30
    (QCheck.make ~print:serve_case_to_string serve_case)
    (fun c ->
      match Config.validate c.sv_cfg with
      | Error reason -> String.trim reason <> ""
      | Ok () ->
          let label = serve_case_to_string c in
          let oracle =
            serve_run c ~backend:Config.Interp ~engine:Config.Sequential
          in
          let check tag r =
            let tag = label ^ " " ^ tag in
            let report r = Json.to_string (Loadgen.report_json r ~engine:"") in
            Alcotest.(check string) (tag ^ ": report") (report oracle)
              (report r);
            Alcotest.(check int) (tag ^ ": outcome digest")
              oracle.Loadgen.outcome_digest r.Loadgen.outcome_digest;
            Alcotest.(check bool) (tag ^ ": end signatures") true
              (oracle.Loadgen.end_sigs = r.Loadgen.end_sigs);
            Alcotest.(check int) (tag ^ ": final cycle")
              (System.now oracle.Loadgen.sys) (System.now r.Loadgen.sys)
          in
          check "blocks"
            (serve_run c ~backend:Config.Blocks ~engine:Config.Sequential);
          let program =
            Loadgen.program_for ~config:c.sv_cfg ~workload:Ycsb.A
              ~records:c.sv_records ~requests:c.sv_requests
          in
          let net_ok =
            Eligibility.eligible (Eligibility.check ~config:c.sv_cfg ~program)
          in
          if
            Config.validate ~net_ok
              { c.sv_cfg with Config.engine = Config.Parallel }
            = Ok ()
          then
            check "parallel"
              (serve_run c ~backend:Config.Blocks ~engine:Config.Parallel);
          true)

(* --- allocation pins ---------------------------------------------------- *)

(* An endless loop over the compiled closures of the hot path: ALU
   operations with immediate and register operands, loads, stores, push
   and pop, every float operation and float condition, the float loads,
   stores and conversions, a call and its return, and the loop's branch.
   Every [Fb] lands on the next instruction, taken or not. *)
let alloc_program =
  let open Instr in
  let a = Asm.create "alloc-pin" in
  Asm.space a "buf" 16;
  Asm.data_floats a "fbuf" [| 1.5; 0.0 |];
  Asm.label a "main";
  Asm.movi a Reg.R4 0;
  Asm.la a Reg.R5 "buf";
  Asm.la a Reg.R11 "fbuf";
  Asm.label a "loop";
  Asm.addi a Reg.R4 Reg.R4 3;
  Asm.add a Reg.R6 Reg.R4 Reg.R4;
  Asm.xori a Reg.R6 Reg.R6 0x11;
  Asm.and_ a Reg.R7 Reg.R6 Reg.R4;
  Asm.andi a Reg.R8 Reg.R4 15;
  Asm.add a Reg.R8 Reg.R8 Reg.R5;
  Asm.st a Reg.R8 Reg.R4 0;
  Asm.ld a Reg.R6 Reg.R8 0;
  Asm.push a Reg.R6;
  Asm.pop a Reg.R6;
  Asm.andi a Reg.R7 Reg.R4 255;
  Asm.emit a (Itof (Reg.F0, Reg.R7));
  Asm.emit a (Fld (Reg.F1, Reg.R11, 0));
  List.iter
    (fun op -> Asm.emit a (Falu (op, Reg.F2, Reg.F0, Reg.F1)))
    [ Fadd; Fsub; Fmul; Fdiv ];
  List.iter
    (fun op -> Asm.emit a (Funop (op, Reg.F3, Reg.F2)))
    [ Fmov; Fneg; Fabs; Fsqrt ];
  Asm.emit a (Fst (Reg.F3, Reg.R11, 1));
  Asm.emit a (Ftoi (Reg.R10, Reg.F3));
  List.iteri
    (fun i c ->
      let next = Printf.sprintf "fb%d" i in
      Asm.emit a (Fb (c, Reg.F0, Reg.F1, Lbl next));
      Asm.label a next)
    [ Eq; Ne; Lt; Le; Gt; Ge ];
  Asm.jal a "sub";
  Asm.b a Eq Reg.R0 (Reg Reg.R0) "loop";
  Asm.label a "sub";
  Asm.addi a Reg.R12 Reg.R12 1;
  Asm.ret a;
  Asm.assemble ~entry:"main" a

let no_clock (_ : int) = ()

(* The per-instruction cycle of [Blockc.run] allocates nothing: after a
   warm-up burst has decoded the loop's page, a 200,000-cycle burst
   with the x86 profile's jitter on takes no minor words. *)
let test_burst_allocates_nothing () =
  let lay = Layout.compute ~nreplicas:1 ~user_words:16384 in
  let machine =
    Machine.create ~profile:Arch.x86 ~mem_words:lay.Layout.total_words
      ~ncores:1 ~seed:5 ()
  in
  let k =
    Kernel.create ~backend:Blockc.Blocks ~machine ~rid:0 ~core_id:0
      ~layout:lay ~program:alloc_program ~callbacks:null_callbacks ()
  in
  Kernel.setup_address_space k;
  ignore (Kernel.spawn k ~entry:alloc_program.Program.entry ~arg:0);
  Kernel.start k;
  let bc = Option.get (Kernel.block_cache k) and c = Kernel.core k in
  let burst fuel =
    match Blockc.run bc ~fuel ~at:no_clock with
    | None -> ()
    | Some _ -> Alcotest.fail "the endless loop raised a core event"
  in
  burst 10_000;
  let cycles = c.Core.cycles and instret = c.Core.instret in
  let calls = c.Core.regs.(Reg.index Reg.R12) in
  let before = Gc.minor_words () in
  burst 200_000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "cycles run" 200_000 (c.Core.cycles - cycles);
  let retired = c.Core.instret - instret in
  Alcotest.(check bool)
    (Printf.sprintf "jitter stalls taken (%d retired)" retired)
    true
    (retired > 100_000 && retired < 200_000);
  Alcotest.(check bool) "calls returned" true
    (c.Core.regs.(Reg.index Reg.R12) - calls > 1_000);
  Alcotest.(check (float 0.0)) "minor words over the burst" 0.0 words

(* Whole unreplicated runs on [Blocks] stay under 0.05 minor words per
   simulated cycle: what remains is per-event and per-tick work (system
   calls, timer ticks, the run loop's steps between events), not per
   instruction. *)
let test_base_runs_allocate_little () =
  List.iter
    (fun (name, program) ->
      let cfg =
        {
          (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ~seed:7 ())
          with
          Config.exec_backend = Config.Blocks;
        }
      in
      let sys = System.create ~config:cfg ~program in
      let before = Gc.minor_words () in
      System.run sys ~max_cycles:max_int;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
      let per_cycle = words /. float_of_int (System.now sys) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words per cycle over %d cycles" name
           per_cycle (System.now sys))
        true (per_cycle < 0.05))
    [
      ("Base whetstone", Whetstone.program ~loops:200 ~branch_count:false ());
      ( "Base md5sum",
        Md5sum.program ~message_words:128 ~iters:40 ~seed:3 ~branch_count:false
          () );
    ]

(* Replicated runs without exception barriers, the CLI's default, on
   [Blocks]: the classic cycles that remain, in which two replicas
   execute, allocate nothing, so whole runs stay under one minor word per
   simulated cycle. *)
let test_no_barrier_runs_allocate_little () =
  List.iter
    (fun (name, mode, nreplicas, program) ->
      let cfg =
        {
          (Runner.config_for ~mode ~nreplicas ~arch:x86 ()) with
          Config.exec_backend = Config.Blocks;
        }
      in
      let sys = System.create ~config:cfg ~program in
      let before = Gc.minor_words () in
      System.run sys ~max_cycles:max_int;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
      let per_cycle = words /. float_of_int (System.now sys) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words per cycle over %d cycles" name
           per_cycle (System.now sys))
        true (per_cycle < 1.0))
    [
      ( "CC-DMR whetstone",
        Config.CC,
        2,
        Whetstone.program ~branch_count:false () );
      ("LC-TMR md5sum", Config.LC, 3, Md5sum.program ~branch_count:false ());
    ]

let suite =
  [
    Alcotest.test_case
      "twin-core lockstep vs oracle (+ breakpoint on compiled block)" `Quick
      test_lockstep_oracle;
    Alcotest.test_case "bursts equal per-cycle steps, stall stamps included"
      `Quick test_burst_vs_steps;
    Alcotest.test_case "healthy sweep: Base/LC/CC x DMR/TMR, sequential"
      `Slow test_sweep_seq;
    Alcotest.test_case "healthy sweep: LC-T/CC-D, parallel engine" `Slow
      test_sweep_par;
    Alcotest.test_case "CC sweep exercises catch-up breakpoints" `Slow
      test_sweep_exercises_catchup;
    Alcotest.test_case "untraced sweep: windowed bursts match the oracle"
      `Slow test_sweep_untraced;
    Alcotest.test_case "traced sweep: bursts match the oracle, bus stalls too"
      `Slow test_sweep_traced;
    Alcotest.test_case "no exception barriers: LC/CC md5sum match the oracle"
      `Slow test_no_barrier_md5;
    Alcotest.test_case
      "no exception barriers: CC-2 whetstone (x86, Arm, fast catch-up, \
       slices)"
      `Slow test_no_barrier_whetstone;
    Alcotest.test_case "fault + rollback recovery differential" `Slow
      test_recovery_differential;
    Alcotest.test_case "ingress-drop differential" `Slow
      test_ingress_drop_differential;
    Alcotest.test_case "served CC-DMR on Blocks windows equals Interp" `Slow
      test_serve_windows_differential;
    Alcotest.test_case "interrupt mid-Rep_movs under CC catch-up" `Slow
      test_mid_rep_movs_differential;
    Alcotest.test_case "self-modifying code invalidation regression" `Quick
      test_smc_invalidation;
    QCheck_alcotest.to_alcotest ~speed_level:`Slow
      ~rand:(Random.State.make [| generated_seed |])
      qcheck_generated_differential;
    Alcotest.test_case "a burst allocates nothing per executed instruction"
      `Quick test_burst_allocates_nothing;
    Alcotest.test_case "Base runs on Blocks allocate < 0.05 words per cycle"
      `Quick test_base_runs_allocate_little;
    Alcotest.test_case
      "no-barrier replicated runs on Blocks allocate < 1 word per cycle" `Quick
      test_no_barrier_runs_allocate_little;
    QCheck_alcotest.to_alcotest ~speed_level:`Slow
      ~rand:(Random.State.make [| serve_seed |])
      qcheck_generated_serves;
  ]
