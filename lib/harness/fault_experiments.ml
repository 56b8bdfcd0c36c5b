open Rcoe_core
open Rcoe_workloads
open Rcoe_faults
open Rcoe_util

let x86 = Rcoe_machine.Arch.X86
let arm = Rcoe_machine.Arch.Arm

let header = Report.header
(* ----------------------------------------------------------- Table VII -- *)

type t7_config = {
  t7_label : string;
  t7_mode : Config.mode;
  t7_n : int;
  t7_trace : bool;
}

let t7_configs =
  [
    { t7_label = "Base"; t7_mode = Config.Base; t7_n = 1; t7_trace = true };
    { t7_label = "LC-D"; t7_mode = Config.LC; t7_n = 2; t7_trace = true };
    { t7_label = "LC-T"; t7_mode = Config.LC; t7_n = 3; t7_trace = true };
    { t7_label = "CC-D"; t7_mode = Config.CC; t7_n = 2; t7_trace = true };
    { t7_label = "CC-T"; t7_mode = Config.CC; t7_n = 3; t7_trace = true };
    { t7_label = "LC-D-N"; t7_mode = Config.LC; t7_n = 2; t7_trace = false };
    { t7_label = "LC-T-N"; t7_mode = Config.LC; t7_n = 3; t7_trace = false };
  ]

(* One fault-injection trial: run the KV workload while flipping memory
   bits at a fixed cadence; classify what the trial produced. *)
let kv_fault_trial ~arch ~mode ~n ~trace ~barriers ~campaign ~seed
    ~flip_interval =
  let config =
    {
      (Runner.config_for ~mode ~nreplicas:n ~arch ~with_net:true ~seed ())
      with
      Config.trace_output = trace;
      exception_barriers = barriers;
      (* Detection must win the race against the client's patience: the
         paper's barrier timeout is milliseconds while clients wait much
         longer before declaring the server dead. *)
      barrier_timeout = 200_000;
    }
  in
  let injector = ref None in
  let next_flip = ref flip_interval in
  let flips = ref 0 in
  let inject sys =
    let inj =
      match !injector with
      | Some i -> i
      | None ->
          let used rid = Rcoe_kernel.Kernel.used_user_words (System.kernel sys rid) in
          let i =
            Injector.create ~seed:(seed * 7919)
              (campaign (System.layout sys) ~used_words:used)
          in
          injector := Some i;
          i
    in
    if System.now sys >= !next_flip then begin
      next_flip := System.now sys + flip_interval;
      ignore (Injector.flip_one inj (System.machine sys).Rcoe_machine.Machine.mem);
      incr flips
    end
  in
  let res =
    Kv_run.run ~config ~workload:Ycsb.A ~records:100 ~operations:120
      ~gen_seed:(seed + 5000) ~stall_limit:700_000 ~max_cycles:2_500_000
      ~inject ~stop_on_error:true ()
  in
  let c = res.Kv_run.counters in
  let outcome =
    Outcome.classify ~sys:res.Kv_run.sys
      ~client_corrupt:(c.Ycsb.corrupted > 0)
      ~client_error:(c.Ycsb.client_errors > 0 || res.Kv_run.stalled)
  in
  (outcome, !flips)

let print_tally tbl label tally total_flips =
  let open Outcome in
  Table.add_row tbl
    ([ label; string_of_int total_flips ]
    @ List.map
        (fun o -> string_of_int (tally_get tally o))
        [
          Ycsb_corruption; Ycsb_error; User_mem_fault; User_other_fault;
          Kernel_exception; Barrier_timeout; Signature_mismatch;
        ]
    @ [ string_of_int (tally_uncontrolled tally) ])

let one_trial_for_debug ~mode ~n ~seed =
  kv_fault_trial ~arch:x86 ~mode ~n ~trace:true ~barriers:false
    ~campaign:Injector.x86_active_campaign ~seed ~flip_interval:3_000

let table7 ?(trials = 40) ~variant () =
  let arch, barriers, campaign, vname =
    match variant with
    | `X86 ->
        (x86, false, Injector.x86_active_campaign, "x86 (no exception barriers)")
    | `Arm ->
        (arm, true, Injector.arm_active_campaign, "Arm (with exception barriers)")
  in
  header
    (Printf.sprintf "Table VII (%s): memory fault injection on the KV server"
       vname)
    "base: faults escape as corruption/errors/crashes; LC/CC detect all \
     but ~1-1.5% (timeouts + signature mismatches); kernel aborts are \
     uncontrolled kernel exceptions on x86 but caught by barriers on \
     Arm; the -N rows (no output tracing) fail at 10-40x the rate";
  let tbl =
    Table.create
      ~headers:
        [
          "config"; "flips"; "ycsb-corru"; "ycsb-err"; "user-mem"; "user-oth";
          "kern-exc"; "timeout"; "mismatch"; "UNCONTROLLED";
        ]
  in
  List.iter
    (fun tc ->
      if not (variant = `X86 && not tc.t7_trace) then begin
        (* The paper shows the -N rows for the Arm campaign. *)
        let tally = Outcome.tally_create () in
        let total_flips = ref 0 in
        for seed = 1 to trials do
          let outcome, flips =
            kv_fault_trial ~arch ~mode:tc.t7_mode ~n:tc.t7_n ~trace:tc.t7_trace
              ~barriers ~campaign ~seed:(seed * 31) ~flip_interval:3_000
          in
          Outcome.tally_add tally outcome;
          total_flips := !total_flips + flips
        done;
        print_tally tbl tc.t7_label tally !total_flips
      end)
    t7_configs;
  Table.print tbl;
  Printf.printf
    "(UNCONTROLLED counts trials whose error escaped: corruption, client \
     errors, crashes, kernel exceptions; detected and error-free trials \
     are controlled)\n%!"

(* ---------------------------------------------------------- Table VIII -- *)

let table8 ?(trials = 60) () =
  header "Table VIII: register fault injection on md5sum (VM, x86)"
    "base: 100% uncontrolled (about one third crashes, two thirds silent \
     digest corruptions); CC-D: 100% controlled (~96% signature \
     mismatches, ~4% timeouts), zero corrupt outputs escape";
  let tbl =
    Table.create
      ~headers:
        [ "config"; "injected"; "crashes"; "corruptions"; "timeouts";
          "mismatches"; "uncontrolled"; "controlled" ]
  in
  let run_campaign label mode n =
    let crashes = ref 0
    and corruptions = ref 0
    and timeouts = ref 0
    and mismatches = ref 0
    and injected = ref 0 in
    for seed = 1 to trials do
      let config =
        {
          (Runner.config_for ~mode ~nreplicas:n ~arch:x86 ~vm:true
             ~seed:(seed * 17) ())
          with
          Config.barrier_timeout = 600_000;
        }
      in
      let program =
        Md5sum.program ~message_words:96 ~iters:40 ~seed:(seed * 3)
          ~branch_count:false ()
      in
      let sys = System.create ~config ~program in
      let armed = ref false and count = ref 0 in
      System.set_after_save_hook sys
        (Some
           (Injector.reg_flip_hook ~seed:(seed * 101) ~only_rid:0 ~armed ~count
              (System.machine sys).Rcoe_machine.Machine.mem));
      (* Arm the injector before every tick until the trial resolves. *)
      let resolved = ref false in
      while not !resolved do
        armed := true;
        System.run sys ~max_cycles:60_000;
        let out = System.output sys 0 in
        let crashed =
          List.exists
            (fun (_, k) -> match k with System.E_user_fault _ -> true | _ -> false)
            (System.events sys)
        in
        match System.halted sys with
        | Some System.H_timeout ->
            incr timeouts;
            resolved := true
        | Some (System.H_mismatch | System.H_no_consensus | System.H_masking_blocked) ->
            incr mismatches;
            resolved := true
        | Some (System.H_kernel_exception _) ->
            incr crashes;
            resolved := true
        | None ->
            if String.contains out 'X' then begin
              incr corruptions;
              resolved := true
            end
            else if crashed && n = 1 then begin
              (* Unreplicated: a dead thread is a crash. Replicated: the
                 dead replica leaves the others to time the round out, so
                 keep running until the detector fires. *)
              incr crashes;
              resolved := true
            end
            else if System.finished sys then resolved := true
      done;
      injected := !injected + !count
    done;
    Table.add_row tbl
      [
        label;
        string_of_int !injected;
        string_of_int !crashes;
        string_of_int !corruptions;
        string_of_int !timeouts;
        string_of_int !mismatches;
        string_of_int (!crashes + !corruptions);
        string_of_int (!timeouts + !mismatches);
      ]
  in
  run_campaign "Base (VM)" Config.Base 1;
  run_campaign "CC-D (VM)" Config.CC 2;
  Table.print tbl

(* ------------------------------------------------------------ Table IX -- *)

let table9 ?(trials = 50) () =
  header "Table IX: overclocking (correlated fault bursts) on Arm"
    "user-mode errors dominate the unprotected system; LC detects all \
     but ~2.5% (mostly barrier timeouts); occasional reboots and wedged \
     interrupts remain externally visible";
  let tbl =
    Table.create
      ~headers:
        [
          "config"; "user-flt"; "ycsb-corru"; "ycsb-err"; "reboot"; "timeout";
          "mismatch"; "uncontrolled";
        ]
  in
  let run_campaign label mode n =
    let tally = Outcome.tally_create () in
    for seed = 1 to trials do
      let config =
        {
          (Runner.config_for ~mode ~nreplicas:n ~arch:arm ~with_net:true
             ~seed:(seed * 23) ())
          with
          Config.exception_barriers = true;
          barrier_timeout = 200_000;
        }
      in
      let oc = ref None in
      let next_burst = ref 30_000 in
      let rebooted = ref false in
      let reg_target = ref None in
      let hook_installed = ref false in
      let inject sys =
        if not !hook_installed then begin
          hook_installed := true;
          (* Register corruption: flip a bit in the saved context of the
             targeted replica at its next preemption. *)
          let rng = Rcoe_util.Rng.create (seed * 4099) in
          System.set_after_save_hook sys
            (Some
               (fun ~rid ~tid:_ ~ctx_addr ->
                 match !reg_target with
                 | Some r when r = rid ->
                     reg_target := None;
                     let word = Rcoe_util.Rng.int rng 17 in
                     let off =
                       if word = 16 then Rcoe_kernel.Context.ip_offset
                       else Rcoe_kernel.Context.reg_offset word
                     in
                     Rcoe_machine.Mem.flip_bit
                       (System.machine sys).Rcoe_machine.Machine.mem
                       ~addr:(ctx_addr + off)
                       ~bit:(Rcoe_util.Rng.int rng 32)
                 | _ -> ()))
        end;
        let o =
          match !oc with
          | Some o -> o
          | None ->
              let used rid =
                Rcoe_kernel.Kernel.used_user_words (System.kernel sys rid)
              in
              let o =
                Overclock.create ~active_user:used ~seed:(seed * 577)
                  (System.layout sys)
              in
              oc := Some o;
              o
        in
        if (not !rebooted) && System.now sys >= !next_burst then begin
          next_burst := System.now sys + 18_000;
          match Overclock.step o (System.machine sys).Rcoe_machine.Machine.mem with
          | Overclock.Burst _ -> ()
          | Overclock.Reg_burst rid -> reg_target := Some rid
          | Overclock.Reboot ->
              rebooted := true;
              Array.iter
                (fun c -> c.Rcoe_machine.Core.halted <- true)
                (System.machine sys).Rcoe_machine.Machine.cores
          | Overclock.Irq_loss -> (
              match System.netdev sys with
              | Some nd -> Rcoe_machine.Netdev.set_wedged nd true
              | None -> ())
        end
      in
      let res =
        Kv_run.run ~config ~workload:Ycsb.A ~records:24 ~operations:60
          ~gen_seed:(seed + 9000) ~stall_limit:500_000 ~max_cycles:2_500_000
          ~inject ~stop_on_error:true ()
      in
      let c = res.Kv_run.counters in
      let outcome =
        if !rebooted then Outcome.System_reboot
        else
          Outcome.classify ~sys:res.Kv_run.sys
            ~client_corrupt:(c.Ycsb.corrupted > 0)
            ~client_error:(c.Ycsb.client_errors > 0 || res.Kv_run.stalled)
      in
      Outcome.tally_add tally outcome
    done;
    let open Outcome in
    Table.add_row tbl
      [
        label;
        string_of_int
          (tally_get tally User_mem_fault + tally_get tally User_other_fault);
        string_of_int (tally_get tally Ycsb_corruption);
        string_of_int (tally_get tally Ycsb_error);
        string_of_int (tally_get tally System_reboot);
        string_of_int (tally_get tally Barrier_timeout);
        string_of_int (tally_get tally Signature_mismatch);
        string_of_int (tally_uncontrolled tally);
      ]
  in
  run_campaign "Base" Config.Base 1;
  run_campaign "LC-D" Config.LC 2;
  run_campaign "LC-T" Config.LC 3;
  Table.print tbl

(* ----------------------------------------------- detection latency -- *)

let detection_latency ?(runs = 5) () =
  header "Detection latency vs tick interval and sync level"
    "latency ~ tick interval at level A (detected at the next \
     synchronisation); roughly the inter-syscall gap at level S (every \
     syscall votes) - the paper's tunable performance-safety trade-off";
  let tbl =
    Table.create
      ~headers:[ "tick interval"; "level"; "mean latency (cycles)"; "max" ]
  in
  (* A compute loop with a syscall every ~600 cycles. *)
  let program =
    let a = Rcoe_isa.Asm.create "latency" in
    let open Rcoe_isa in
    Asm.label a "main";
    Asm.for_up a Reg.R4 ~start:0 ~stop:(Instr.Imm 1_000_000) (fun () ->
        Asm.remi a Reg.R5 Reg.R4 199;
        Asm.if_ a Instr.Eq Reg.R5 (Instr.Imm 0) (fun () ->
            Asm.movi a Reg.R0 46;
            Asm.syscall a Rcoe_kernel.Syscall.sys_putchar));
    Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
    Asm.assemble ~entry:"main" a
  in
  List.iter
    (fun tick_interval ->
      List.iter
        (fun (lname, level) ->
          let lats = ref [] in
          for seed = 1 to runs do
            let config =
              Runner.config_for ~mode:Config.LC ~nreplicas:2 ~arch:x86
                ~sync_level:level ~tick_interval ~seed:(seed * 41) ()
            in
            let sys = System.create ~config ~program in
            let warm = 30_000 + (seed * 1_000) in
            System.run sys ~max_cycles:warm;
            let injected_at = System.now sys in
            let addr = System.sig_base sys 1 + 1 and bit = seed mod 30 in
            Rcoe_machine.Mem.flip_bit
              (System.machine sys).Rcoe_machine.Machine.mem ~addr ~bit;
            (* Mark the injection so the engine's detection-latency
               histogram measures the same interval we compute here. *)
            Rcoe_obs.Trace.injection (System.trace sys) ~addr ~bit;
            System.run sys ~max_cycles:3_000_000;
            match System.halted sys with
            | Some System.H_mismatch ->
                lats := float_of_int (System.now sys - injected_at) :: !lats
            | _ -> ()
          done;
          match !lats with
          | [] -> Table.add_row tbl [ string_of_int tick_interval; lname; "n/a"; "" ]
          | ls ->
              Table.add_row tbl
                [
                  string_of_int tick_interval;
                  lname;
                  Printf.sprintf "%.0f" (Rcoe_util.Stats.mean ls);
                  Printf.sprintf "%.0f"
                    (List.fold_left Float.max 0.0 ls);
                ])
        [ ("A", Config.Sync_args); ("S", Config.Sync_vote) ])
    [ 5_000; 20_000; 50_000; 100_000 ];
  Table.print tbl

(* ----------------------------------------------- recovery campaign -- *)

(* Run [sys] to a warm point, flip one bit of replica [rid]'s signature
   accumulator, then poll it to completion. [`Transient] flips once;
   [`Persistent] re-flips after every rollback, modelling a stuck-at
   fault the recovery cannot outrun. [corrupt] judges the final output.
   Returns (outcome, rollbacks, checkpoints taken, recovery-latency
   samples). *)
let flip_and_poll sys ~rid ~fault ~seed ~corrupt =
  (* Warm long enough for the checkpoint ring to fill, so the
     persistent case demonstrates the whole escalation chain (retry
     newest -> drop -> older) before the budget fail-stops it. *)
  System.run sys ~max_cycles:150_000;
  let mem = (System.machine sys).Rcoe_machine.Machine.mem in
  let flip () =
    let addr = System.sig_base sys rid + 1 and bit = seed mod 30 in
    Rcoe_machine.Mem.flip_bit mem ~addr ~bit;
    Rcoe_obs.Trace.injection (System.trace sys) ~addr ~bit
  in
  flip ();
  (* A persistent fault must re-assert before the system can take a
     fresh (clean) checkpoint, or each re-assertion looks like a new
     transient; poll in sub-round windows for it. *)
  let window, budget =
    match fault with
    | `Transient -> (100_000, ref 200)
    | `Persistent -> (10_000, ref 600)
  in
  let rollbacks_seen = ref (List.length (System.rollbacks sys)) in
  while
    (not (System.finished sys)) && System.halted sys = None && !budget > 0
  do
    decr budget;
    System.run sys ~max_cycles:window;
    (* A persistent fault re-asserts itself after every recovery: the
       rollback restored the accumulator, so corrupt it again. *)
    let rb = List.length (System.rollbacks sys) in
    if fault = `Persistent && rb > !rollbacks_seen then begin
      rollbacks_seen := rb;
      if System.halted sys = None && not (System.finished sys) then flip ()
    end
  done;
  let outcome =
    Outcome.classify ~sys ~client_corrupt:(corrupt (System.output sys 0))
      ~client_error:(not (System.finished sys) && System.halted sys = None)
  in
  let latencies =
    match
      Rcoe_obs.Metrics.find_histogram (System.metrics sys)
        "recover.latency_cycles"
    with
    | Some h -> Rcoe_obs.Metrics.samples h
    | None -> []
  in
  ( outcome,
    List.length (System.rollbacks sys),
    System.checkpoints_taken sys,
    latencies )

(* One md5sum trial on a CC-D system: corrupt one replica's signature
   accumulator, immediately detectable at the next vote. Without
   checkpointing every such detection halts the system. *)
let recovery_trial ?(exec_backend = Config.Interp) ~checkpointing ~fault ~seed
    () =
  let config =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86
         ~seed:(seed * 17) ())
      with
      Config.barrier_timeout = 600_000;
      checkpoint_every = (if checkpointing then 2 else 0);
      checkpoint_depth = 3;
      max_rollbacks = 8;
      exec_backend;
    }
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:12 ~seed:(seed * 3)
      ~branch_count:false ()
  in
  flip_and_poll (System.create ~config ~program) ~rid:1 ~fault ~seed
    ~corrupt:(fun out -> String.contains out 'X')

(* The same signature-corruption campaign on an unreplicated primary
   under asynchronous replay detection ([Config.Replay]): detection is
   a checker's end-of-chunk signature disagreement rather than a
   lockstep vote, and recovery rolls back to the mismatching chunk's
   start image. A transient must end [Recovered] with the fault-free
   reference output — on both execution backends; a persistent fault
   re-asserts after the rollback, and the repeat verdict against the
   same chunk fail-stops: replay re-executed the chunk from a clean
   snapshot and it *still* mismatched, so the fault is deterministic
   and retrying cannot help. *)
let replay_recovery_trial ?(exec_backend = Config.Interp) ~fault ~seed () =
  let config =
    {
      (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86
         ~seed:(seed * 17) ())
      with
      Config.detection = Config.Replay;
      replay_chunk_ticks = 2;
      max_rollbacks = 8;
      exec_backend;
    }
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:12 ~seed:(seed * 3)
      ~branch_count:false ()
  in
  (* Fault-free reference output: recovery must reproduce it exactly. *)
  let reference =
    let sys =
      System.create
        ~config:{ config with Config.detection = Config.Lockstep } ~program
    in
    System.run sys ~max_cycles:10_000_000;
    System.output sys 0
  in
  let sys = System.create ~config ~program in
  flip_and_poll sys ~rid:0 ~fault ~seed ~corrupt:(fun out ->
      System.finished sys && out <> reference)

let recovery_table ?(trials = 12) () =
  header "Recovery campaign: DMR halt vs DMR rollback on md5sum (CC-D, x86)"
    "without checkpoints every injected signature corruption halts the \
     run (controlled, but service dead); with a checkpoint ring the same \
     transient faults re-execute to a correct finish (Recovered); a \
     persistent fault exhausts the rollback budget and still fail-stops";
  let tbl =
    Table.create
      ~headers:
        [
          "config"; "fault"; "trials"; "recovered"; "mismatch-halt";
          "no-error"; "UNCONTROLLED"; "ckpts"; "rollbacks";
          "mean-recovery-cyc";
        ]
  in
  let uncontrolled_total = ref 0 and unrecovered = ref 0 in
  (* [must_recover]: every trial must end Recovered, and one that does
     not counts against the CI gate. The transient replay rows demand
     it — a fail-stop would be controlled but defeats replay's point.
     The persistent replay row must fail-stop: a second mismatch before
     any chunk verifies (the fault is deterministic under replay, so
     retrying cannot help) halts instead of rolling back again. *)
  let row ?(must_recover = false) label trial ~fault =
    let tally = Outcome.tally_create () in
    let rollbacks = ref 0 and ckpts = ref 0 and lats = ref [] in
    for seed = 1 to trials do
      let outcome, rb, ck, ls = trial ~fault ~seed () in
      Outcome.tally_add tally outcome;
      if must_recover && outcome <> Outcome.Recovered then
        incr unrecovered;
      rollbacks := !rollbacks + rb;
      ckpts := !ckpts + ck;
      lats := ls @ !lats
    done;
    uncontrolled_total := !uncontrolled_total + Outcome.tally_uncontrolled tally;
    let open Outcome in
    Table.add_row tbl
      [
        label;
        (match fault with `Transient -> "transient" | `Persistent -> "persistent");
        string_of_int trials;
        string_of_int (tally_get tally Recovered);
        string_of_int (tally_get tally Signature_mismatch);
        string_of_int (tally_get tally No_error);
        string_of_int (tally_uncontrolled tally);
        string_of_int !ckpts;
        string_of_int !rollbacks;
        (match !lats with
        | [] -> "n/a"
        | ls -> Printf.sprintf "%.0f" (Rcoe_util.Stats.mean ls));
      ]
  in
  let lockstep checkpointing ~fault ~seed () =
    recovery_trial ~checkpointing ~fault ~seed ()
  in
  let replay exec_backend ~fault ~seed () =
    replay_recovery_trial ~exec_backend ~fault ~seed ()
  in
  row "CC-D halt" (lockstep false) ~fault:`Transient;
  row "CC-D rollback" (lockstep true) ~fault:`Transient;
  row "CC-D rollback" (lockstep true) ~fault:`Persistent;
  row "Replay interp" (replay Config.Interp) ~must_recover:true ~fault:`Transient;
  row "Replay blocks" (replay Config.Blocks) ~must_recover:true ~fault:`Transient;
  row "Replay interp" (replay Config.Interp) ~fault:`Persistent;
  Table.print tbl;
  if !unrecovered > 0 then
    Printf.printf
      "REPLAY: %d transient trial(s) did not end Recovered\n" !unrecovered;
  Printf.printf
    "(recovery latency = re-execution distance back to the detection \
     point plus the restore stall; replay rows recover an unreplicated \
     primary from chunk-start checkpoints after an asynchronous checker \
     verdict; scaled trial counts as in EXPERIMENTS.md)\n%!";
  !uncontrolled_total + !unrecovered

(* -------------------------------------------- DMA ingress campaign -- *)

(* One serving trial with a bit flipped inside an in-flight RX DMA
   frame — the paper's Table VII residual: the frame sits outside the
   sphere of replication, so voting never sees the flip and no
   checkpoint covers the ring, leaving rollback powerless. With
   [ingress_check] off the corrupted PUT is stored and served silently
   until a later GET trips the client's embedded CRC; with it on, the
   consume path recomputes the frame checksum against the NIC's
   enqueue-time RX_CSUM, NACKs the frame, and the client's
   retransmission re-delivers the pristine payload. *)
let ingress_trial ?(exec_backend = Config.Interp) ~mode ~n ~ingress_check
    ~fault ~seed () =
  let config =
    {
      (Runner.config_for ~mode ~nreplicas:n ~arch:x86 ~with_net:true
         ~seed:(13 * seed) ())
      with
      Config.ingress_check;
      barrier_timeout = 200_000;
      exec_backend;
    }
  in
  let fault_spec =
    if fault then
      Some
        {
          Loadgen.fault_after = 8;
          fault_bit = seed;
          fault_target = Loadgen.Dma_frame;
        }
    else None
  in
  (* YCSB-B (95% reads): a corrupted PUT's key is overwhelmingly
     likely to be GET before the next overwrite, so the checking-off
     rows surface the corruption client-side instead of silently
     erasing the evidence under write-heavy churn. *)
  let res =
    Loadgen.run ~config ~workload:Ycsb.B ~records:40 ~requests:200
      ~gen_seed:700 ~stall_limit:1_500_000 ~max_cycles:60_000_000
      ~retry_after:60_000 ?fault:fault_spec ()
  in
  let c = res.Loadgen.counters in
  let outcome =
    Outcome.classify ~sys:res.Loadgen.sys
      ~client_corrupt:(c.Ycsb.corrupted > 0)
      ~client_error:(c.Ycsb.client_errors > 0 || res.Loadgen.stalled)
  in
  (outcome, res)

let ingress_table ?(trials = 6) () =
  header
    "DMA ingress campaign: in-flight RX frame corruption, checksum path \
     off vs on"
    "off: the flip is served silently until a later GET trips the \
     client CRC (YCSB corruption, uncontrolled) - detection by \
     replication is structurally impossible since the frame is outside \
     the SoR; on: the consume path drops the frame against RX_CSUM and \
     the client retransmission re-delivers it (controlled), with the \
     seq-sorted outcome digest matching the fault-free reference";
  let tbl =
    Table.create
      ~headers:
        [
          "config"; "ingress"; "trials"; "fired"; "dropped"; "redeliv";
          "silent-corru"; "ingress-drop"; "no-error"; "UNCONTROLLED";
          "digest=ref";
        ]
  in
  let uncontrolled_total = ref 0 in
  let row label mode n ingress_check =
    (* Fault-free reference: the seq-sorted outcome digest is invariant
       under drop-induced completion reordering, so one reference run
       serves every trial of the row. *)
    let _, refr = ingress_trial ~mode ~n ~ingress_check ~fault:false ~seed:1 () in
    let tally = Outcome.tally_create () in
    let fired = ref 0 and dropped = ref 0 and redeliv = ref 0 in
    let corrupt = ref 0 and digest_ok = ref 0 in
    for seed = 1 to trials do
      let outcome, res =
        ingress_trial ~mode ~n ~ingress_check ~fault:true ~seed ()
      in
      Outcome.tally_add tally outcome;
      if res.Loadgen.fault_fired then incr fired;
      dropped := !dropped + res.Loadgen.ingress_dropped;
      redeliv := !redeliv + res.Loadgen.redelivered;
      corrupt := !corrupt + res.Loadgen.counters.Ycsb.corrupted;
      if
        res.Loadgen.outcome_sorted_digest = refr.Loadgen.outcome_sorted_digest
        && res.Loadgen.completed = refr.Loadgen.completed
      then incr digest_ok
    done;
    (* The off rows are *expected* to be uncontrolled — that is the
       hole being demonstrated; only the checking-on rows gate. *)
    if ingress_check then
      uncontrolled_total :=
        !uncontrolled_total + Outcome.tally_uncontrolled tally;
    let open Outcome in
    Table.add_row tbl
      [
        label;
        (if ingress_check then "on" else "off");
        string_of_int trials;
        string_of_int !fired;
        string_of_int !dropped;
        string_of_int !redeliv;
        string_of_int (tally_get tally Ycsb_corruption);
        string_of_int (tally_get tally Ingress_dropped);
        string_of_int (tally_get tally No_error);
        string_of_int (tally_uncontrolled tally);
        Printf.sprintf "%d/%d" !digest_ok trials;
      ]
  in
  row "LC-D" Config.LC 2 false;
  row "LC-D" Config.LC 2 true;
  row "CC-D" Config.CC 2 false;
  row "CC-D" Config.CC 2 true;
  Table.print tbl;
  Printf.printf
    "(silent-corru counts trials whose corruption reached the client; \
     ingress-drop counts trials where the frame was dropped and \
     redelivered; digest=ref compares the seq-sorted outcome digest \
     against a fault-free reference run)\n%!";
  !uncontrolled_total

(* The @faultquick gate's DMA-corruption leg: one deterministic off/on
   pair on CC-D. Returns the number of violated expectations. *)
let ingress_quick ?(seed = 3) () =
  let fails = ref 0 in
  let expect cond msg =
    if not cond then begin
      incr fails;
      Printf.printf "ingress-quick: FAILED: %s\n" msg
    end
  in
  let off_outcome, off =
    ingress_trial ~mode:Config.CC ~n:2 ~ingress_check:false ~fault:true ~seed ()
  in
  let on_outcome, on_ =
    ingress_trial ~mode:Config.CC ~n:2 ~ingress_check:true ~fault:true ~seed ()
  in
  Printf.printf
    "ingress-quick: off => %s (corrupted=%d), on => %s (checked=%d \
     dropped=%d redelivered=%d)\n%!"
    (Outcome.to_string off_outcome)
    off.Loadgen.counters.Rcoe_workloads.Ycsb.corrupted
    (Outcome.to_string on_outcome)
    on_.Loadgen.ingress_checked on_.Loadgen.ingress_dropped
    on_.Loadgen.redelivered;
  expect off.Loadgen.fault_fired "checking off: DMA flip did not land";
  expect
    (off.Loadgen.counters.Rcoe_workloads.Ycsb.corrupted > 0)
    "checking off: corruption should reach the client (silent until the \
     CRC trips)";
  expect
    (off_outcome = Outcome.Ycsb_corruption)
    "checking off: outcome should classify as YCSB corruption";
  expect on_.Loadgen.fault_fired "checking on: DMA flip did not land";
  expect
    (on_.Loadgen.ingress_dropped >= 1)
    "checking on: the corrupted frame should be dropped at ingress";
  expect
    (on_.Loadgen.counters.Rcoe_workloads.Ycsb.corrupted = 0)
    "checking on: no corruption may reach the client";
  expect
    (on_outcome = Outcome.Ingress_dropped)
    "checking on: outcome should classify as controlled ingress drop";
  expect (not on_.Loadgen.stalled)
    "checking on: redelivery should finish the run";
  !fails

let all ~quick =
  let t = if quick then 25 else 80 in
  table7 ~trials:t ~variant:`X86 ();
  table7 ~trials:t ~variant:`Arm ();
  table8 ~trials:(if quick then 20 else 60) ();
  table9 ~trials:(if quick then 20 else 60) ();
  ignore (recovery_table ~trials:(if quick then 6 else 16) ());
  ignore (ingress_table ~trials:(if quick then 3 else 8) ());
  detection_latency ~runs:(if quick then 3 else 8) ()
