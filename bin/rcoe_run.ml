(* rcoe_run: command-line front end, one command per job.

   - `rcoe_run list` — available workloads
   - `rcoe_run run -w dhrystone -m lc -n 3 -a arm` — run one workload
     under a replication configuration and report timing and stats;
     `--trace-out t.json` also exports a Perfetto-loadable trace
   - `rcoe_run serve -m cc -n 2 --workload B` — serve a YCSB request
     stream through the NIC to the replicated KV server
   - `rcoe_run recover` — the checkpoint/rollback recovery campaign
   - `rcoe_run disasm -w whetstone` — show the assembled program
   - `rcoe_run lint [-w datarace]` — static replication-safety analysis:
     LC_safe / CC_required / Rejected per workload *)

open Cmdliner
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness

(* The CLI's error style for a run it refuses: one labelled reason on
   stderr, exit 1. *)
let fail label msg =
  Printf.eprintf "%-12s%s\n" (label ^ ":") msg;
  exit 1

let workloads =
  [
    ("dhrystone", fun branch_count -> Dhrystone.program ~branch_count ());
    ("whetstone", fun branch_count -> Whetstone.program ~branch_count ());
    ("membw", fun branch_count -> Membw.program ~branch_count ());
    ("datarace", fun branch_count -> Datarace.program ~branch_count ());
    ( "datarace-locked",
      fun branch_count -> Datarace.program ~locked:true ~branch_count () );
    ("md5sum", fun branch_count -> Md5sum.program ~branch_count ());
  ]
  @ List.map
      (fun k -> ("splash:" ^ k, fun branch_count -> Splash.program k ~branch_count ()))
      Splash.names

(* The lint command also covers the KV server program, the guest that
   `serve` drives with the host-side YCSB generator. *)
let lintable =
  workloads @ [ ("kvstore", fun branch_count -> Kvstore.program ~branch_count ()) ]

let program_of name ~branch_count = List.assoc name lintable branch_count

(* Unknown names are rejected while the command line is parsed, before
   any program is built. *)
let workload_conv names =
  let parse s =
    if List.mem_assoc s names then Ok s
    else Error (`Msg (Printf.sprintf "unknown workload %s (try `rcoe_run list`)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* --- common options --------------------------------------------------- *)

let mode_arg =
  let mode_conv = Arg.enum [ ("base", Config.Base); ("lc", Config.LC); ("cc", Config.CC) ] in
  Arg.(value & opt mode_conv Config.Base & info [ "m"; "mode" ] ~doc:"base | lc | cc")

let replicas_arg =
  Arg.(value & opt int 1 & info [ "n"; "replicas" ] ~doc:"replica count (1/2/3)")

let arch_arg =
  let arch_conv =
    Arg.enum [ ("x86", Rcoe_machine.Arch.X86); ("arm", Rcoe_machine.Arch.Arm) ]
  in
  Arg.(value & opt arch_conv Rcoe_machine.Arch.X86 & info [ "a"; "arch" ] ~doc:"x86 | arm")

let level_arg =
  let level_conv =
    Arg.enum
      [ ("N", Config.Sync_none); ("A", Config.Sync_args); ("S", Config.Sync_vote) ]
  in
  Arg.(value & opt level_conv Config.Sync_args & info [ "level" ] ~doc:"sync level N | A | S")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"simulation seed")

let checkpoint_every_arg =
  Arg.(value & opt int 0
       & info [ "checkpoint-every" ]
           ~doc:"capture a verified checkpoint every N successful sync \
                 rounds and roll back to it instead of halting on a \
                 detected divergence (0 disables recovery)")

let max_rollbacks_arg =
  Arg.(value & opt int 3
       & info [ "max-rollbacks" ]
           ~doc:"rollback budget before a persistent fault fail-stops")

let checkpoint_mode_arg =
  let ckpt_mode_conv =
    Arg.enum
      [ ("full", Config.Full); ("incremental", Config.Incremental) ]
  in
  Arg.(value & opt ckpt_mode_conv Config.Incremental
       & info [ "checkpoint-mode" ]
           ~doc:"full | incremental: copy whole partitions at every \
                 capture, or only the pages dirtied since the previous \
                 one (restores are bit-for-bit identical)")

let parallel_arg =
  Arg.(value & flag
       & info [ "parallel" ]
           ~doc:"execute replicas on separate host domains between sync \
                 points (bit-for-bit identical to the sequential engine; \
                 implies exception barriers under replication)")

let exec_backend_arg =
  let backend_conv =
    Arg.enum [ ("interp", Config.Interp); ("blocks", Config.Blocks) ]
  in
  Arg.(value & opt backend_conv Config.Interp
       & info [ "exec-backend" ]
           ~doc:"interp | blocks: decode every instruction every cycle \
                 (the oracle), or pre-decode each code page once into \
                 closures (bit-for-bit and cycle-for-cycle identical, \
                 just faster)")

let detection_arg =
  let det_conv =
    Arg.enum [ ("lockstep", Config.Lockstep); ("replay", Config.Replay) ]
  in
  Arg.(value & opt det_conv Config.Lockstep
       & info [ "detection" ]
           ~doc:"lockstep: replicas execute in near-lockstep and vote \
                 signatures at sync points (the default); replay: an \
                 unreplicated primary runs ahead at near-Base speed while \
                 checker domains re-execute input-logged chunks from \
                 pinned checkpoints and compare end-of-chunk signatures \
                 asynchronously (forces mode base, -n 1, the sequential \
                 engine; recovery rolls back to the mismatching chunk's \
                 start)")

let replay_chunk_ticks_arg =
  Arg.(value & opt int 1
       & info [ "replay-chunk-ticks" ]
           ~doc:"replay chunk length in scheduler ticks — the \
                 overhead-vs-lag dial: longer chunks amortise the \
                 per-cut capture stall, shorter ones tighten the \
                 detection-lag bound (chunk span x queue depth)")

let replay_queue_depth_arg =
  Arg.(value & opt int 4
       & info [ "replay-queue-depth" ]
           ~doc:"bound on in-flight unverified chunks; a full queue \
                 stalls the primary (backpressure, never drop)")

let replay_checkers_arg =
  Arg.(value & opt int 2
       & info [ "replay-checkers" ]
           ~doc:"checker domains replaying chunks concurrently")

let trace_out_arg ~doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc)

(* --- the configuration path -------------------------------------------- *)

(* Every command builds its configuration the same way, in one order:
   the shape every configurable command shares (LC and CC get at least
   a DMR pair), then the command's own flags ([own]), then detection —
   all validated here — and finally [apply_engine], once the command
   has assembled its program. *)
let configured ~with_net own =
  let shape mode n arch sync_level seed checkpoint_every checkpoint_mode
      max_rollbacks exec_backend =
    {
      (Runner.config_for ~mode
         ~nreplicas:(if mode = Config.Base then max 1 n else max 2 n)
         ~arch ~sync_level ~seed ~with_net ())
      with
      Config.checkpoint_every;
      checkpoint_mode;
      max_rollbacks;
      exec_backend;
    }
  in
  (* Replay detection: the primary is an unreplicated Base-mode system
     on the sequential engine, and the round-cadence checkpoint ring is
     owned by the chunk cuts. *)
  let detect detection replay_chunk_ticks replay_queue_depth replay_checkers
      config =
    if detection <> Config.Replay then config
    else begin
      if config.Config.mode <> Config.Base || config.Config.nreplicas > 1 then
        Printf.eprintf
          "detection:  replay runs an unreplicated primary; forcing mode \
           base, -n 1\n";
      {
        config with
        Config.detection = Config.Replay;
        mode = Config.Base;
        nreplicas = 1;
        engine = Config.Sequential;
        checkpoint_every = 0;
        replay_chunk_ticks;
        replay_queue_depth;
        replay_checkers;
        max_rollbacks = max 1 config.Config.max_rollbacks;
      }
    end
  in
  let build shape own detect =
    let config = detect (own shape) in
    match Config.validate config with
    | Ok () -> config
    | Error msg -> fail "config" ("rejected: " ^ msg)
  in
  Term.(
    const build
    $ (const shape $ mode_arg $ replicas_arg $ arch_arg $ level_arg $ seed_arg
     $ checkpoint_every_arg $ checkpoint_mode_arg $ max_rollbacks_arg
     $ exec_backend_arg)
    $ own
    $ (const detect $ detection_arg $ replay_chunk_ticks_arg
     $ replay_queue_depth_arg $ replay_checkers_arg))

(* Switch a validated configuration to the parallel engine, or explain —
   in the style of a lint finding — why it cannot hold the engine's
   determinism contract, and exit non-zero. Networked configurations
   are eligible only with a footprint proof over the actual guest
   [program]: the analyzer's verdict (with instruction-address
   provenance on rejection) decides. Together with the validation in
   [configured] this is [Config.validate] of the parallel
   configuration. *)
let apply_engine ~program ~parallel config =
  if not parallel then config
  else if config.Config.detection = Config.Replay then
    fail "parallel"
      "rejected: replay detection owns the checker domains (the primary \
       itself is sequential)"
  else
    let config =
      {
        config with
        Config.engine = Config.Parallel;
        exception_barriers =
          config.Config.exception_barriers
          || config.Config.mode <> Config.Base;
      }
    in
    let elig =
      if config.Config.with_net then Some (Eligibility.check ~config ~program)
      else None
    in
    let net_ok =
      match elig with Some e -> Eligibility.eligible e | None -> false
    in
    match Config.parallel_ineligibility ~net_ok config with
    | None -> config
    | Some reason ->
        Printf.eprintf "parallel:   rejected: %s\n" reason;
        (match elig with
        | Some e ->
            List.iter
              (fun d ->
                Printf.eprintf "parallel:     %s\n" d.Eligibility.d_message)
              (Eligibility.diags e)
        | None -> ());
        exit 1

let print_replay_summary sys =
  let c = System.counter sys in
  Printf.printf
    "replay:     %d chunks, %d verified, %d mismatches, %d rollbacks\n"
    (c "replay.chunks")
    (c "replay.chunks_verified")
    (c "replay.mismatches")
    (List.length (System.rollbacks sys))

(* Write a Chrome trace-event export, then re-read it: an export that
   does not parse, or holds no events, fails the command. *)
let export_trace ?extra path tr =
  Rcoe_obs.Export.write_chrome ?extra ~path tr;
  match Rcoe_obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> fail "trace" ("exported JSON is malformed: " ^ e)
  | Ok j -> (
      match Rcoe_obs.Json.member "traceEvents" j with
      | Some (Rcoe_obs.Json.List (_ :: _ as evs)) ->
          Printf.printf "wrote:      %s (%d trace events)\n" path
            (List.length evs)
      | _ -> fail "trace" "traceEvents missing or empty")

(* --- commands ---------------------------------------------------------- *)

let list_cmd =
  let doc = "list available workloads" in
  let run () =
    List.iter (fun (name, _) -> print_endline name) workloads;
    print_endline "kvstore (via the `serve` subcommand)"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "run a workload under a replication configuration" in
  let wl_arg =
    Arg.(required & opt (some (workload_conv workloads)) None
         & info [ "w"; "workload" ] ~doc:"workload name")
  in
  let vm_arg = Arg.(value & flag & info [ "vm" ] ~doc:"run as a virtual-machine guest") in
  let fast_catchup_arg =
    Arg.(value & flag
         & info [ "fast-catchup" ]
             ~doc:"PMU-assisted CC catch-up (the paper's Section VI proposal)")
  in
  let strict_lint_arg =
    Arg.(value & flag
         & info [ "strict-lint" ]
             ~doc:"refuse to start if the static analyzer rejects the \
                   program or finds races under LC")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"print the full metrics registry (counters and \
                   histograms) after the run")
  in
  let trace_out_arg =
    trace_out_arg
      ~doc:"record a cycle-accurate trace and export it to this path as \
            Chrome trace-event JSON (load it at ui.perfetto.dev); the \
            export is re-read and must parse and hold events"
  in
  let own =
    let set vm fast_catchup strict_lint trace_out config =
      {
        config with
        Config.vm;
        fast_catchup;
        strict_lint;
        trace =
          Option.map (fun _ -> { Rcoe_obs.Trace.capacity = 65536 }) trace_out;
      }
    in
    Term.(const set $ vm_arg $ fast_catchup_arg $ strict_lint_arg $ trace_out_arg)
  in
  let run wl config parallel metrics trace_out =
    let arch = config.Config.arch in
    let program = program_of wl ~branch_count:(Wl.branch_count_for arch) in
    let config = apply_engine ~program ~parallel config in
    let sys =
      match System.create_result ~config ~program with
      | Ok sys -> sys
      | Error reason -> fail "config" ("rejected: " ^ reason)
    in
    System.run sys ~max_cycles:200_000_000;
    let cycles = System.now sys in
    List.iter
      (fun w -> Printf.printf "lint:       warning: %s\n" w)
      (System.lint_warnings sys);
    if
      (System.lint_report sys).Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.CC_required
      && config.Config.mode = Config.LC
    then
      Printf.printf
        "lint:       program requires CC; this LC run may silently \
         diverge\n";
    let profile = Rcoe_machine.Arch.profile_of arch in
    Printf.printf "workload:   %s\n" wl;
    Printf.printf "config:     %s on %s%s, level %s\n"
      (Config.replicas_label config)
      (Rcoe_machine.Arch.to_string arch)
      (if config.Config.vm then " (VM)" else "")
      (Config.sync_level_to_string config.Config.sync_level);
    Printf.printf "engine:     %s, %s backend\n"
      (Config.engine_to_string config.Config.engine)
      (Config.exec_backend_to_string config.Config.exec_backend);
    Printf.printf "finished:   %b\n" (System.finished sys);
    (match System.halted sys with
    | Some h -> Printf.printf "halted:     %s\n" (System.halt_reason_to_string h)
    | None -> ());
    Printf.printf "cycles:     %d (%.1f us at %d MHz)\n" cycles
      (Rcoe_machine.Arch.cycles_to_us profile cycles)
      profile.Rcoe_machine.Arch.freq_mhz;
    let c = System.counter sys in
    Printf.printf
      "sync:       %d rounds, %d ticks, %d votes, %d bp fires, %d FT rounds\n"
      (c "sync.rounds") (c "kernel.ticks_delivered") (c "sync.votes")
      (c "catchup.bp_fires") (c "sync.ft_rounds");
    if config.Config.checkpoint_every > 0 then
      Printf.printf "recovery:   %d checkpoints (%s), %d rollbacks\n"
        (System.checkpoints_taken sys)
        (Config.checkpoint_mode_to_string config.Config.checkpoint_mode)
        (List.length (System.rollbacks sys));
    if config.Config.detection = Config.Replay then print_replay_summary sys;
    let out = System.output sys 0 in
    if out <> "" then Printf.printf "output:     %S\n" out;
    if metrics then
      Rcoe_util.Table.print (Rcoe_obs.Metrics.to_table (System.metrics sys));
    Option.iter
      (fun path ->
        let tr = System.trace sys in
        Printf.printf "trace:      %d events recorded, %d dropped (ring %d)\n"
          (Rcoe_obs.Trace.total tr) (Rcoe_obs.Trace.dropped tr)
          (Rcoe_obs.Trace.capacity tr);
        export_trace path tr;
        Rcoe_util.Table.print (Rcoe_obs.Export.summary_table tr))
      trace_out
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ wl_arg $ configured ~with_net:false own $ parallel_arg
      $ metrics_arg $ trace_out_arg)

let serve_cmd =
  let doc =
    "serve a KV request stream through the NIC with request-level \
     observability: HDR latency histograms, per-request lifecycle \
     tracing, stall attribution, and an optional fault campaign"
  in
  let ycsb_arg =
    let parse s =
      match Ycsb.workload_of_string s with
      | w -> Ok w
      | exception Invalid_argument _ ->
          Error (`Msg (Printf.sprintf "unknown YCSB workload %s (A-F)" s))
    in
    let print ppf w = Format.pp_print_string ppf (Ycsb.workload_to_string w) in
    Arg.(value & opt (conv (parse, print)) Ycsb.A
         & info [ "workload" ] ~doc:"YCSB workload A-F")
  in
  let records_arg =
    Arg.(value & opt int 256 & info [ "records" ] ~doc:"record count (load phase)")
  in
  let requests_arg =
    Arg.(value & opt int 10_000
         & info [ "requests" ] ~doc:"run-phase request count")
  in
  let window_arg =
    Arg.(value & opt int 8
         & info [ "window" ] ~doc:"closed-loop outstanding-request window")
  in
  let open_rate_arg =
    Arg.(value & opt int 0
         & info [ "open-interval" ]
             ~doc:"open-loop mode: one arrival every N device-clock \
                   cycles (0 = closed loop)")
  in
  let max_queue_arg =
    Arg.(value & opt int 256
         & info [ "max-queue" ]
             ~doc:"open-loop bound on outstanding requests")
  in
  let masking_arg =
    Arg.(value & flag
         & info [ "masking" ]
             ~doc:"enable TMR->DMR error masking (requires -n 3)")
  in
  let fault_arg =
    Arg.(value & flag
         & info [ "fault" ]
             ~doc:"fault campaign: flip a bit mid-run (see --fault-target) \
                   and measure detection latency and recovery stalls \
                   (signature faults enable checkpointing if off)")
  in
  let fault_after_arg =
    Arg.(value & opt int 100
         & info [ "fault-after" ]
             ~doc:"inject after this many completed run-phase requests")
  in
  let fault_bit_arg =
    Arg.(value & opt int 7 & info [ "fault-bit" ] ~doc:"bit index to flip")
  in
  let fault_target_arg =
    let target_conv =
      Arg.enum [ ("sig", Loadgen.Sig_word); ("dma", Loadgen.Dma_frame) ]
    in
    Arg.(value & opt target_conv Loadgen.Sig_word
         & info [ "fault-target" ]
             ~doc:"sig: replica 1's signature word (inside the SoR; \
                   detected by voting, repaired by rollback); dma: a \
                   value word of an in-flight RX PUT frame (outside the \
                   SoR; only the ingress-checksum path can catch it)")
  in
  let fault_term =
    let spec fault fault_after fault_bit fault_target =
      if fault then Some { Loadgen.fault_after; fault_bit; fault_target }
      else None
    in
    Term.(const spec $ fault_arg $ fault_after_arg $ fault_bit_arg $ fault_target_arg)
  in
  let ingress_check_arg =
    Arg.(value & flag
         & info [ "ingress-check" ]
             ~doc:"verify each consumed frame against the NIC's \
                   enqueue-time checksum (RX_CSUM) and NACK mismatches \
                   for client retransmission — closes the DMA ingress \
                   hole server-side")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~doc:"write the JSON report here (- for stdout)")
  in
  let trace_out_arg =
    trace_out_arg
      ~doc:"export a Chrome/Perfetto trace with per-request tracks to \
            this path; the export is re-read and must parse and hold \
            events"
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"run the same serve on both engines and fail unless \
                   the request outcome logs, end-state signatures and \
                   cycle counts are bit-for-bit identical")
  in
  let chunk_arg =
    Arg.(value & opt int 400
         & info [ "chunk" ]
             ~doc:"harness poll granularity in cycles (drain/top-up \
                   period); larger chunks amortise per-call engine \
                   overhead on the parallel engine")
  in
  (* A signature-fault campaign without recovery would fail-stop at
     detection; default to the recovery-trial cadence. A DMA-frame
     fault needs no checkpoints — rollback cannot repair it anyway;
     the ingress path's drop-and-redeliver lane is the recovery.
     Replay detection cuts its own per-chunk checkpoints and resets the
     round cadence to 0. *)
  let own =
    let set masking ingress_check fault config =
      let checkpoint_every =
        match fault with
        | Some { Loadgen.fault_target = Loadgen.Sig_word; _ }
          when config.Config.checkpoint_every = 0 ->
            2
        | _ -> config.Config.checkpoint_every
      in
      { config with Config.masking; ingress_check; checkpoint_every }
    in
    Term.(const set $ masking_arg $ ingress_check_arg $ fault_term)
  in
  let run config workload records requests window open_rate max_queue fault
      parallel json_out trace_out check chunk =
    if config.Config.detection = Config.Replay && check then
      fail "check"
        "rejected: --check compares the two lockstep engines; for the \
         replay-detection determinism pair use `dune build @replay-diff`";
    let pacing =
      if open_rate > 0 then
        Loadgen.Open { interval = open_rate; max_queue }
      else Loadgen.Closed { window }
    in
    let program = Loadgen.program_for ~config ~workload ~records ~requests in
    let serve ~parallel =
      let config = apply_engine ~program ~parallel config in
      ( Loadgen.run ~config ~workload ~records ~requests ~pacing ~chunk ?fault (),
        Config.engine_to_string config.Config.engine )
    in
    let print_summary (r, engine) =
      let e2e = Rcoe_obs.Reqtrace.e2e r.Loadgen.rt in
      Printf.printf
        "%-12s %.1f kops/s, %d/%d requests, p50=%d p99=%d p99.9=%d max=%d \
         cycles\n"
        (engine ^ ":") r.Loadgen.kops_per_sec r.Loadgen.completed
        r.Loadgen.issued
        (Rcoe_obs.Hdr.percentile e2e 50.0)
        (Rcoe_obs.Hdr.percentile e2e 99.0)
        (Rcoe_obs.Hdr.percentile e2e 99.9)
        (Rcoe_obs.Hdr.max_value e2e)
    in
    let print_detail (r : Loadgen.result) =
      let attribution = Rcoe_obs.Reqtrace.attribution r.Loadgen.rt in
      let total =
        max 1 (List.assoc "total_cycles" attribution)
      in
      Printf.printf "breakdown:  %s\n"
        (String.concat ", "
           (List.filter_map
              (fun (k, v) ->
                if k = "total_cycles" then None
                else
                  Some
                    (Printf.sprintf "%s %.1f%%" k
                       (100.0 *. float_of_int v /. float_of_int total)))
              attribution));
      (match System.netdev r.Loadgen.sys with
      | Some nd ->
          Printf.printf
            "net:        rx_dropped=%d rx_ring_hwm=%d tx_pending_hwm=%d \
             tx_sent=%d\n"
            (Rcoe_machine.Netdev.rx_dropped nd)
            (Rcoe_machine.Netdev.rx_ring_hwm nd)
            (Rcoe_machine.Netdev.tx_pending_hwm nd)
            (Rcoe_machine.Netdev.tx_sent nd)
      | None -> ());
      let tr = System.trace r.Loadgen.sys in
      Printf.printf "trace:      %d events, %d dropped; open-req hwm %d\n"
        (Rcoe_obs.Trace.total tr)
        (Rcoe_obs.Trace.dropped tr)
        (Rcoe_obs.Reqtrace.open_hwm r.Loadgen.rt);
      if config.Config.ingress_check || r.Loadgen.ingress_dropped > 0 then begin
        Printf.printf
          "ingress:    checked=%d dropped=%d redelivered=%d retransmits=%d\n"
          r.Loadgen.ingress_checked r.Loadgen.ingress_dropped
          r.Loadgen.redelivered r.Loadgen.retransmits;
        if r.Loadgen.ingress_dropped > 0 then
          Printf.printf "ingress-stall: %s\n"
            (Rcoe_obs.Hdr.summary (Rcoe_obs.Reqtrace.ingress_hdr r.Loadgen.rt))
      end;
      if fault <> None then begin
        let d = Rcoe_obs.Reqtrace.detect_hdr r.Loadgen.rt in
        let s = Rcoe_obs.Reqtrace.stall_hdr r.Loadgen.rt in
        Printf.printf "detect:     %s\n" (Rcoe_obs.Hdr.summary d);
        Printf.printf "stall:      %s\n" (Rcoe_obs.Hdr.summary s);
        Printf.printf "recovery:   %d rollbacks\n" r.Loadgen.rollbacks
      end;
      if config.Config.detection = Config.Replay then
        print_replay_summary r.Loadgen.sys;
      if r.Loadgen.stalled then Printf.printf "stalled:    true\n";
      match System.halted r.Loadgen.sys with
      | Some h ->
          Printf.printf "halted:     %s\n" (System.halt_reason_to_string h)
      | None -> ()
    in
    let emit_artifacts (r, engine) =
      (match json_out with
      | Some "-" ->
          print_endline
            (Rcoe_obs.Json.to_string (Loadgen.report_json r ~engine))
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc
                (Rcoe_obs.Json.to_string (Loadgen.report_json r ~engine)));
          Printf.printf "wrote:      %s\n" path
      | None -> ());
      Option.iter
        (fun path ->
          export_trace
            ~extra:(Rcoe_obs.Reqtrace.chrome_events r.Loadgen.rt)
            path (System.trace r.Loadgen.sys))
        trace_out
    in
    Printf.printf "config:     %s on %s, level %s, YCSB-%s, %s\n"
      (Config.replicas_label config)
      (Rcoe_machine.Arch.to_string config.Config.arch)
      (Config.sync_level_to_string config.Config.sync_level)
      (Ycsb.workload_to_string workload)
      (match pacing with
      | Loadgen.Closed { window } -> Printf.sprintf "closed window %d" window
      | Loadgen.Open { interval; _ } ->
          Printf.sprintf "open 1/%d cycles" interval);
    if check then begin
      let seq = serve ~parallel:false in
      let par = serve ~parallel:true in
      print_summary seq;
      print_summary par;
      let s, _ = seq and p, _ = par in
      print_detail s;
      emit_artifacts seq;
      let diverged =
        List.filter_map
          (fun (differs, msg) -> if differs then Some msg else None)
          [
            (System.now s.Loadgen.sys <> System.now p.Loadgen.sys, "cycle counts differ");
            (s.Loadgen.end_sigs <> p.Loadgen.end_sigs, "end-state signatures differ");
            ( s.Loadgen.outcome_log <> p.Loadgen.outcome_log,
              Printf.sprintf "outcome logs differ (digest %08x vs %08x)"
                s.Loadgen.outcome_digest p.Loadgen.outcome_digest );
          ]
      in
      if diverged = [] then
        Printf.printf "check:      ok (%d outcomes identical across engines)\n"
          (List.length s.Loadgen.outcome_log)
      else begin
        List.iter (fun m -> Printf.eprintf "check:      DIVERGED: %s\n" m) diverged;
        exit 1
      end
    end
    else begin
      let res = serve ~parallel in
      print_summary res;
      print_detail (fst res);
      emit_artifacts res
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ configured ~with_net:true own $ ycsb_arg $ records_arg
      $ requests_arg $ window_arg $ open_rate_arg $ max_queue_arg $ fault_term
      $ parallel_arg $ json_arg $ trace_out_arg $ check_arg $ chunk_arg)

let recover_cmd =
  let doc =
    "run the checkpoint/rollback recovery campaign (DMR halt vs DMR \
     rollback on md5sum)"
  in
  let trials_arg =
    Arg.(value & opt int 8 & info [ "trials" ] ~doc:"trials per table row")
  in
  let ci_arg =
    Arg.(value & flag
         & info [ "ci" ]
             ~doc:"exit non-zero if any trial produced an uncontrolled \
                   outcome (the @faultquick gate)")
  in
  let run trials ci =
    let uncontrolled = Fault_experiments.recovery_table ~trials () in
    (* The DMA-corruption leg: the rollback campaign above covers faults
       inside the SoR; this pair demonstrates the residual outside it is
       silent without the ingress-checksum path and contained with it. *)
    let ingress_fails = Fault_experiments.ingress_quick () in
    if ci then
      if uncontrolled = 0 && ingress_fails = 0 then
        print_endline "faultquick: ok (0 uncontrolled, ingress pair held)"
      else begin
        Printf.eprintf
          "faultquick: %d uncontrolled outcome(s), %d ingress expectation(s) \
           violated\n"
          uncontrolled ingress_fails;
        exit 1
      end
  in
  Cmd.v (Cmd.info "recover" ~doc) Term.(const run $ trials_arg $ ci_arg)

let disasm_cmd =
  let doc = "disassemble a workload program" in
  let wl_arg =
    Arg.(required & opt (some (workload_conv workloads)) None
         & info [ "w"; "workload" ] ~doc:"workload name")
  in
  let counted_arg =
    Arg.(value & flag & info [ "branch-count" ] ~doc:"apply the branch-counting pass")
  in
  let run wl counted =
    let program = program_of wl ~branch_count:counted in
    Printf.printf "%s: %d instructions, %d data words%s\n\n"
      program.Rcoe_isa.Program.name
      (Rcoe_isa.Program.instruction_count program)
      program.Rcoe_isa.Program.data_words
      (if counted then " (branch-counted)" else "");
    print_string (Rcoe_isa.Program.disassemble program)
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ wl_arg $ counted_arg)

(* --- lint -------------------------------------------------------------- *)

(* Parallel-eligibility verdicts for the lint front end: every workload
   is judged as the guest of a networked configuration under each
   coupling mode — exactly what decides whether `--parallel` would
   admit it (see [Eligibility]). The CC/LC verdicts can differ because
   the analyzer models the `get_info` driver-mode constant and prunes
   the path the mode never takes. *)
let elig_modes = [ ("cc", Config.CC); ("lc", Config.LC); ("base", Config.Base) ]

(* Everything any lint format shows about one workload, computed once. *)
type lint_row = {
  name : string;
  counted : bool;  (* [report] and [elig] are of the branch-counted program *)
  report : Rcoe_isa.Lint.report;
  counted_report : Rcoe_isa.Lint.report;  (* of the branch-counted program *)
  elig : (string * Eligibility.t) list;  (* keyed by [elig_modes] label *)
}

let lint_row ?(counted = false) ?(ingress_check = false) name =
  let analyze branch_count =
    let p = program_of name ~branch_count in
    ( p,
      Rcoe_isa.Lint.analyze
        ~exit_syscalls:[ Rcoe_kernel.Syscall.sys_exit ]
        ~spawn_syscall:Rcoe_kernel.Syscall.sys_spawn p )
  in
  let program, report = analyze counted in
  let elig (label, mode) =
    let config =
      {
        Config.default with
        Config.mode;
        nreplicas = (if mode = Config.Base then 1 else 2);
        with_net = true;
        exception_barriers = true;
        ingress_check;
      }
    in
    (label, Eligibility.check ~config ~program)
  in
  {
    (* The KV guest's footprint is configuration-dependent: the analyzer
       models the get_info ingress flag, so the checksum loop (and its
       MMIO reads) only exists in checked configurations. *)
    name = (if ingress_check then name ^ "+ingress" else name);
    counted;
    report;
    counted_report = (if counted then report else snd (analyze true));
    elig = List.map elig elig_modes;
  }

let verdict_str r = Rcoe_isa.Lint.verdict_to_string r.Rcoe_isa.Lint.verdict

let count sev r =
  List.length
    (List.filter (fun f -> f.Rcoe_isa.Lint.f_severity = sev) r.Rcoe_isa.Lint.findings)

let print_lint_detail row =
  let r = row.report in
  Printf.printf "%s%s: %s\n" row.name
    (if row.counted then " (branch-counted)" else "")
    (verdict_str r);
  Printf.printf "thread roots: %s\n\n"
    (String.concat ", "
       (List.map
          (fun (a, m) ->
            Printf.sprintf "%d (x%s)" a (if m >= 2 then "2+" else string_of_int m))
          r.Rcoe_isa.Lint.cfg.Rcoe_isa.Cfg.roots));
  (match r.Rcoe_isa.Lint.findings with
  | [] -> print_endline "no findings"
  | fs ->
      let t =
        Rcoe_util.Table.create ~headers:[ "addr"; "severity"; "rule"; "finding" ]
      in
      List.iter
        (fun f ->
          Rcoe_util.Table.add_row t
            [
              (match f.Rcoe_isa.Lint.f_addr with
              | Some a -> string_of_int a
              | None -> "-");
              Rcoe_isa.Lint.severity_to_string f.Rcoe_isa.Lint.f_severity;
              f.Rcoe_isa.Lint.f_rule;
              f.Rcoe_isa.Lint.f_message;
            ])
        fs;
      Rcoe_util.Table.print t);
  print_newline ();
  print_endline "parallel eligibility (as a networked guest):";
  List.iter
    (fun (label, e) ->
      match e.Eligibility.verdict with
      | Eligibility.Eligible ->
          Printf.printf
            "  %-5s eligible (%d accesses proven device-clean, %d summary \
             rounds)\n"
            (label ^ ":") e.Eligibility.n_accesses e.Eligibility.rounds
      | Eligibility.Ineligible ds ->
          Printf.printf "  %-5s ineligible (%d diagnostic%s)\n" (label ^ ":")
            (List.length ds)
            (if List.length ds = 1 then "" else "s");
          List.iter (fun d -> Printf.printf "        %s\n" d.Eligibility.d_message) ds)
    row.elig

let print_lint_table rows =
  let t =
    Rcoe_util.Table.create
      ~headers:
        [ "workload"; "verdict"; "counted verdict"; "warnings"; "infos";
          "par-eligible" ]
  in
  List.iter
    (fun row ->
      let par =
        List.filter_map
          (fun (label, e) -> if Eligibility.eligible e then Some label else None)
          row.elig
      in
      Rcoe_util.Table.add_row t
        [
          row.name;
          verdict_str row.report;
          verdict_str row.counted_report;
          string_of_int (count Rcoe_isa.Lint.Warning row.report);
          string_of_int (count Rcoe_isa.Lint.Info row.report);
          (if par = [] then "-" else String.concat "," par);
        ])
    rows;
  Rcoe_util.Table.print t

(* One line per workload, no timing, fixed field order: the format the
   checked-in @lint-sweep expectations file pins, so any verdict drift
   — lint or eligibility — shows up as a diff. *)
let print_sweep_line row =
  Printf.printf "%s verdict=%s counted=%s warnings=%d infos=%d %s\n" row.name
    (verdict_str row.report)
    (verdict_str row.counted_report)
    (count Rcoe_isa.Lint.Warning row.report)
    (count Rcoe_isa.Lint.Info row.report)
    (String.concat " "
       (List.map
          (fun (label, e) ->
            Printf.sprintf "par.%s=%s" label
              (if Eligibility.eligible e then "eligible"
               else Printf.sprintf "ineligible:%d" (List.length (Eligibility.diags e))))
          row.elig))

(* Timing ([host_us]) is deliberately excluded: the JSON report, like
   the sweep lines, is bit-reproducible for a given build. *)
let json_of_row ~with_counted row =
  let open Rcoe_obs.Json in
  let addr = function Some a -> Int a | None -> Null in
  let elig e =
    Obj
      [
        ("eligible", Bool (Eligibility.eligible e));
        ("accesses", Int e.Eligibility.n_accesses);
        ("rounds", Int e.Eligibility.rounds);
        ( "diagnostics",
          List
            (List.map
               (fun d ->
                 Obj
                   [
                     ("addr", addr d.Eligibility.d_addr);
                     ("message", String d.Eligibility.d_message);
                   ])
               (Eligibility.diags e)) );
      ]
  in
  Obj
    ([
       ("workload", String row.name);
       ("branch_counted", Bool row.counted);
       ("verdict", String (verdict_str row.report));
       ( "findings",
         List
           (List.map
              (fun f ->
                Obj
                  [
                    ("addr", addr f.Rcoe_isa.Lint.f_addr);
                    ("rule", String f.Rcoe_isa.Lint.f_rule);
                    ( "severity",
                      String
                        (Rcoe_isa.Lint.severity_to_string
                           f.Rcoe_isa.Lint.f_severity) );
                    ("message", String f.Rcoe_isa.Lint.f_message);
                  ])
              row.report.Rcoe_isa.Lint.findings) );
       ( "parallel_eligibility",
         Obj (List.map (fun (label, e) -> (label, elig e)) row.elig) );
     ]
    @
    if with_counted then [ ("counted_verdict", String (verdict_str row.counted_report)) ]
    else [])

let lint_cmd =
  let doc =
    "statically analyze workloads for replication safety (LC_safe / \
     CC_required / Rejected) and parallel-engine eligibility"
  in
  let wl_arg =
    Arg.(value & opt (some (workload_conv lintable)) None
         & info [ "w"; "workload" ] ~doc:"workload name (default: all)")
  in
  let counted_arg =
    Arg.(value & flag
         & info [ "branch-count" ]
             ~doc:"apply the branch-counting pass before analyzing")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"emit the report as machine-readable JSON on stdout")
  in
  let sweep_arg =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"one deterministic line per bundled workload: lint \
                   verdicts plus per-mode parallel-eligibility — the \
                   format the @lint-sweep expectations file pins")
  in
  let run wl counted json sweep =
    let all () = List.map (fun (name, _) -> lint_row name) lintable in
    let print_json j = print_endline (Rcoe_obs.Json.to_string j) in
    let rows =
      match wl with
      | _ when sweep ->
          let rows = all () @ [ lint_row ~ingress_check:true "kvstore" ] in
          List.iter print_sweep_line rows;
          rows
      | Some name ->
          let row = lint_row ~counted name in
          if json then print_json (json_of_row ~with_counted:false row)
          else print_lint_detail row;
          [ row ]
      | None ->
          let rows = all () in
          if json then
            print_json
              (Rcoe_obs.Json.Obj
                 [
                   ( "workloads",
                     Rcoe_obs.Json.List
                       (List.map (json_of_row ~with_counted:true) rows) );
                 ])
          else print_lint_table rows;
          rows
    in
    let rejected r = r.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected in
    if List.exists (fun row -> rejected row.report || rejected row.counted_report) rows
    then exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ wl_arg $ counted_arg $ json_arg $ sweep_arg)

let () =
  let doc = "redundant co-execution on a simulated COTS multicore" in
  let info = Cmd.info "rcoe_run" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; serve_cmd; recover_cmd; disasm_cmd; lint_cmd ]))
