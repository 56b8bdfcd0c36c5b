(* rcoe_run: command-line front end.

   - `rcoe_run list` — available workloads
   - `rcoe_run run -w dhrystone -m lc -n 3 -a arm` — run one workload
     under a replication configuration and report timing and stats
   - `rcoe_run kv -m cc -n 2 --workload A` — run the KV/YCSB benchmark
   - `rcoe_run disasm -w whetstone` — show the assembled program
   - `rcoe_run lint [-w datarace]` — static replication-safety analysis:
     LC_safe / CC_required / Rejected per workload *)

open Cmdliner
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness

let workload_names =
  [ "dhrystone"; "whetstone"; "membw"; "datarace"; "datarace-locked"; "md5sum" ]
  @ List.map (fun k -> "splash:" ^ k) Splash.names

let program_of_name name ~branch_count =
  match name with
  | "dhrystone" -> Dhrystone.program ~branch_count ()
  | "whetstone" -> Whetstone.program ~branch_count ()
  | "membw" -> Membw.program ~branch_count ()
  | "datarace" -> Datarace.program ~branch_count ()
  | "datarace-locked" -> Datarace.program ~locked:true ~branch_count ()
  | "md5sum" -> Md5sum.program ~branch_count ()
  | other ->
      let prefix = "splash:" in
      let plen = String.length prefix in
      if String.length other > plen && String.sub other 0 plen = prefix then
        Splash.program (String.sub other plen (String.length other - plen))
          ~branch_count ()
      else
        invalid_arg
          (Printf.sprintf "unknown workload %s (try `rcoe_run list`)" other)

(* The lint subcommand also covers the KV server program (the `kv`
   subcommand's guest, driven by the host-side YCSB generator). *)
let lintable_names = workload_names @ [ "kvstore" ]

let lintable_program name ~branch_count =
  if String.equal name "kvstore" then Kvstore.program ~branch_count ()
  else program_of_name name ~branch_count

let analyze_program p =
  Rcoe_isa.Lint.analyze
    ~exit_syscalls:[ Rcoe_kernel.Syscall.sys_exit ]
    ~spawn_syscall:Rcoe_kernel.Syscall.sys_spawn p

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

let vm_arg = Arg.(value & flag & info [ "vm" ] ~doc:"run as a virtual-machine guest")

let level_arg =
  let level_conv =
    Arg.enum
      [ ("N", Config.Sync_none); ("A", Config.Sync_args); ("S", Config.Sync_vote) ]
  in
  Arg.(value & opt level_conv Config.Sync_args & info [ "level" ] ~doc:"sync level N | A | S")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"simulation seed")

let fast_catchup_arg =
  Arg.(value & flag
       & info [ "fast-catchup" ]
           ~doc:"PMU-assisted CC catch-up (the paper's Section VI proposal)")

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

(* Rewrite a configuration for replay detection: the primary is an
   unreplicated Base-mode system on the sequential engine (validation
   enforces all three), and the round-cadence checkpoint ring is owned
   by the chunk cuts. *)
let apply_detection ~detection ~replay_chunk_ticks ~replay_queue_depth
    ~replay_checkers config =
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

let reject_parallel_under_replay ~detection ~parallel =
  if detection = Config.Replay && parallel then begin
    Printf.eprintf
      "parallel:   rejected: replay detection owns the checker domains \
       (the primary itself is sequential)\n";
    exit 1
  end

let print_replay_summary sys =
  let c = System.counter sys in
  Printf.printf
    "replay:     %d chunks, %d verified, %d mismatches, %d rollbacks\n"
    (c "replay.chunks")
    (c "replay.chunks_verified")
    (c "replay.mismatches")
    (List.length (System.rollbacks sys))

(* Switch a configuration to the parallel engine, or explain — in the
   style of a lint finding — why this configuration cannot hold the
   engine's determinism contract, and exit non-zero. Networked
   configurations are eligible only with a footprint proof over the
   actual guest [program]: pass the one the run will assemble and the
   analyzer's verdict (with instruction-address provenance on
   rejection) decides. *)
let apply_engine ?program ~parallel config =
  if not parallel then config
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
      match program with
      | Some p when config.Config.with_net ->
          Some (Eligibility.check ~config ~program:p)
      | _ -> None
    in
    let net_ok =
      match elig with Some e -> Eligibility.eligible e | None -> false
    in
    match Config.parallel_ineligibility ~net_ok config with
    | None -> config
    | Some reason ->
        Printf.eprintf "parallel:   rejected: %s\n" reason;
        (match elig with
        | Some e when not (Eligibility.eligible e) ->
            List.iter
              (fun d ->
                Printf.eprintf "parallel:     %s\n" d.Eligibility.d_message)
              (Eligibility.diags e)
        | _ -> ());
        exit 1

let mk_config ?(fast_catchup = false) ?(masking = false) ?(checkpoint_every = 0)
    ?(checkpoint_mode = Config.Incremental) ?(max_rollbacks = 3)
    ?(exec_backend = Config.Interp) mode n arch vm level seed ~with_net =
  {
    (Runner.config_for ~mode ~nreplicas:n ~arch ~vm ~sync_level:level ~seed
       ~with_net ())
    with
    Config.fast_catchup;
    masking;
    checkpoint_every;
    checkpoint_mode;
    max_rollbacks;
    exec_backend;
  }

(* --- commands ---------------------------------------------------------- *)

let list_cmd =
  let doc = "list available workloads" in
  let run () =
    List.iter print_endline workload_names;
    print_endline "kv (via the `kv` subcommand)"
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "run a workload under a replication configuration" in
  let wl_arg =
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc:"workload name")
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
  let run wl mode n arch vm level seed fast_catchup checkpoint_every
      checkpoint_mode max_rollbacks parallel exec_backend detection
      replay_chunk_ticks replay_queue_depth replay_checkers strict_lint
      metrics =
    reject_parallel_under_replay ~detection ~parallel;
    let branch_count = Wl.branch_count_for arch in
    let program = program_of_name wl ~branch_count in
    let config =
      apply_detection ~detection ~replay_chunk_ticks ~replay_queue_depth
        ~replay_checkers
        (apply_engine ~program ~parallel
           {
             (mk_config ~fast_catchup ~checkpoint_every ~checkpoint_mode
                ~max_rollbacks ~exec_backend mode n arch vm level seed
                ~with_net:false)
             with
             Config.strict_lint;
           })
    in
    let r = Runner.run_program ~config ~program () in
    List.iter
      (fun w -> Printf.printf "lint:       warning: %s\n" w)
      (System.lint_warnings r.Runner.sys);
    (let report = System.lint_report r.Runner.sys in
     if
       report.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.CC_required
       && config.Config.mode = Config.LC
     then
       Printf.printf
         "lint:       program requires CC; this LC run may silently \
          diverge\n");
    let profile = Rcoe_machine.Arch.profile_of arch in
    Printf.printf "workload:   %s\n" wl;
    Printf.printf "config:     %s on %s%s, level %s\n"
      (Config.replicas_label config)
      (Rcoe_machine.Arch.to_string arch)
      (if vm then " (VM)" else "")
      (Config.sync_level_to_string level);
    Printf.printf "engine:     %s, %s backend\n"
      (Config.engine_to_string config.Config.engine)
      (Config.exec_backend_to_string config.Config.exec_backend);
    Printf.printf "finished:   %b\n" r.Runner.finished;
    (match r.Runner.halted with
    | Some h -> Printf.printf "halted:     %s\n" (System.halt_reason_to_string h)
    | None -> ());
    Printf.printf "cycles:     %d (%.1f us at %d MHz)\n" r.Runner.cycles
      (Rcoe_machine.Arch.cycles_to_us profile r.Runner.cycles)
      profile.Rcoe_machine.Arch.freq_mhz;
    let c = System.counter r.Runner.sys in
    Printf.printf
      "sync:       %d rounds, %d ticks, %d votes, %d bp fires, %d FT rounds\n"
      (c "sync.rounds") (c "kernel.ticks_delivered") (c "sync.votes")
      (c "catchup.bp_fires") (c "sync.ft_rounds");
    if config.Config.checkpoint_every > 0 then
      Printf.printf "recovery:   %d checkpoints (%s), %d rollbacks\n"
        (System.checkpoints_taken r.Runner.sys)
        (Config.checkpoint_mode_to_string config.Config.checkpoint_mode)
        (List.length (System.rollbacks r.Runner.sys));
    if config.Config.detection = Config.Replay then
      print_replay_summary r.Runner.sys;
    let out = System.output r.Runner.sys 0 in
    if out <> "" then Printf.printf "output:     %S\n" out;
    if metrics then
      Rcoe_util.Table.print
        (Rcoe_obs.Metrics.to_table (System.metrics r.Runner.sys))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ wl_arg $ mode_arg $ replicas_arg $ arch_arg $ vm_arg
      $ level_arg $ seed_arg $ fast_catchup_arg $ checkpoint_every_arg
      $ checkpoint_mode_arg $ max_rollbacks_arg $ parallel_arg
      $ exec_backend_arg $ detection_arg $ replay_chunk_ticks_arg
      $ replay_queue_depth_arg $ replay_checkers_arg $ strict_lint_arg
      $ metrics_arg)

let kv_cmd =
  let doc = "run the KV server under a YCSB workload" in
  let ycsb_arg =
    Arg.(value & opt string "A" & info [ "workload" ] ~doc:"YCSB workload A-F")
  in
  let records_arg =
    Arg.(value & opt int 200 & info [ "records" ] ~doc:"record count")
  in
  let ops_arg =
    Arg.(value & opt int 1000 & info [ "operations" ] ~doc:"operation count")
  in
  let masking_arg =
    Arg.(value & flag
         & info [ "masking" ]
             ~doc:"enable TMR->DMR error masking (requires -n 3)")
  in
  let run mode n arch level seed wl records operations masking parallel
      exec_backend =
    let base =
      mk_config ~masking ~exec_backend mode n arch false level seed
        ~with_net:true
    in
    let config =
      apply_engine ~parallel
        ~program:(Kv_run.program_for ~config:base ~records ~operations)
        base
    in
    let res =
      Kv_run.run ~config ~workload:(Ycsb.workload_of_string wl) ~records
        ~operations ()
    in
    let c = res.Kv_run.counters in
    Printf.printf "config:      %s on %s, level %s, YCSB-%s\n"
      (Config.replicas_label config)
      (Rcoe_machine.Arch.to_string arch)
      (Config.sync_level_to_string level)
      wl;
    Printf.printf "engine:      %s\n"
      (Config.engine_to_string config.Config.engine);
    (match System.eligibility res.Kv_run.sys with
    | Some e ->
        Printf.printf "analyzer:    %s\n"
          (if Eligibility.eligible e then "parallel-eligible"
           else "parallel-ineligible")
    | None -> ());
    Printf.printf "throughput:  %.1f kops/s (run phase: %d ops, %d cycles)\n"
      res.Kv_run.kops_per_sec res.Kv_run.ops_completed res.Kv_run.elapsed_cycles;
    Printf.printf "client:      %d issued, %d completed, %d corrupted, %d errors\n"
      c.Ycsb.issued c.Ycsb.completed c.Ycsb.corrupted c.Ycsb.client_errors;
    match System.halted res.Kv_run.sys with
    | Some h -> Printf.printf "halted:      %s\n" (System.halt_reason_to_string h)
    | None -> ()
  in
  Cmd.v (Cmd.info "kv" ~doc)
    Term.(
      const run $ mode_arg $ replicas_arg $ arch_arg $ level_arg $ seed_arg
      $ ycsb_arg $ records_arg $ ops_arg $ masking_arg $ parallel_arg
      $ exec_backend_arg)

let trace_cmd =
  let doc =
    "run a workload with cycle-accurate tracing and export a Chrome \
     trace-event JSON (load it at ui.perfetto.dev)"
  in
  let wl_arg =
    Arg.(required & opt (some string) None
         & info [ "w"; "workload" ]
             ~doc:"workload name (also accepts `kvstore` for a short \
                   YCSB run)")
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~doc:"output JSON path")
  in
  let capacity_arg =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~doc:"trace ring capacity (events kept)")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"re-read the exported file and fail unless it parses \
                   and contains trace events")
  in
  let run wl mode n arch vm level seed fast_catchup checkpoint_every
      checkpoint_mode max_rollbacks parallel exec_backend out capacity check =
    (* Replicated modes need at least a DMR pair; bump silently so
       `trace -w whetstone --mode cc` works without an explicit -n. *)
    let n = if mode = Config.Base then max 1 n else max 2 n in
    let with_net = String.equal wl "kvstore" in
    let records = 48 and operations = 96 in
    let base =
      mk_config ~fast_catchup ~checkpoint_every ~checkpoint_mode ~max_rollbacks
        ~exec_backend mode n arch vm level seed ~with_net
    in
    let program =
      if with_net then Kv_run.program_for ~config:base ~records ~operations
      else program_of_name wl ~branch_count:(Wl.branch_count_for arch)
    in
    let config =
      apply_engine ~program ~parallel
        { base with Config.trace = Some { Rcoe_obs.Trace.capacity } }
    in
    let sys =
      if with_net then
        let res = Kv_run.run ~config ~workload:Ycsb.A ~records ~operations () in
        res.Kv_run.sys
      else
        let r = Runner.run_program ~config ~program () in
        r.Runner.sys
    in
    let tr = System.trace sys in
    Rcoe_obs.Export.write_chrome ~path:out tr;
    Printf.printf "workload:   %s\n" wl;
    Printf.printf "config:     %s on %s%s, level %s\n"
      (Config.replicas_label config)
      (Rcoe_machine.Arch.to_string arch)
      (if vm then " (VM)" else "")
      (Config.sync_level_to_string level);
    Printf.printf "trace:      %d events recorded, %d dropped (ring %d)\n"
      (Rcoe_obs.Trace.total tr)
      (Rcoe_obs.Trace.dropped tr)
      (Rcoe_obs.Trace.capacity tr);
    (match System.netdev sys with
    | Some nd ->
        Printf.printf
          "net:        rx_dropped=%d rx_ring_hwm=%d tx_pending_hwm=%d \
           tx_sent=%d\n"
          (Rcoe_machine.Netdev.rx_dropped nd)
          (Rcoe_machine.Netdev.rx_ring_hwm nd)
          (Rcoe_machine.Netdev.tx_pending_hwm nd)
          (Rcoe_machine.Netdev.tx_sent nd)
    | None -> ());
    Printf.printf "wrote:      %s\n" out;
    Rcoe_util.Table.print (Rcoe_obs.Export.summary_table tr);
    if check then begin
      let ic = open_in_bin out in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      match Rcoe_obs.Json.parse s with
      | Error e ->
          Printf.eprintf "check:      exported JSON is malformed: %s\n" e;
          exit 1
      | Ok j -> (
          match Rcoe_obs.Json.member "traceEvents" j with
          | Some (Rcoe_obs.Json.List (_ :: _ as evs)) ->
              Printf.printf "check:      ok (%d trace events)\n"
                (List.length evs)
          | _ ->
              Printf.eprintf "check:      traceEvents missing or empty\n";
              exit 1)
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ wl_arg $ mode_arg $ replicas_arg $ arch_arg $ vm_arg
      $ level_arg $ seed_arg $ fast_catchup_arg $ checkpoint_every_arg
      $ checkpoint_mode_arg $ max_rollbacks_arg $ parallel_arg
      $ exec_backend_arg $ out_arg $ capacity_arg $ check_arg)

let serve_cmd =
  let doc =
    "serve a KV request stream through the NIC with request-level \
     observability: HDR latency histograms, per-request lifecycle \
     tracing, stall attribution, and an optional fault campaign"
  in
  let ycsb_arg =
    Arg.(value & opt string "A" & info [ "workload" ] ~doc:"YCSB workload A-F")
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
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"export a Chrome/Perfetto trace with per-request \
                   tracks to this path")
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
  let run mode n arch level seed wl records requests window open_rate max_queue
      checkpoint_every checkpoint_mode max_rollbacks fault fault_after
      fault_bit fault_target ingress_check parallel exec_backend detection
      replay_chunk_ticks replay_queue_depth replay_checkers json_out
      trace_out check chunk =
    reject_parallel_under_replay ~detection ~parallel;
    if detection = Config.Replay && check then begin
      Printf.eprintf
        "check:      rejected: --check compares the two lockstep engines; \
         for the replay-detection determinism pair use `dune build \
         @replay-diff`\n";
      exit 1
    end;
    let n = if mode = Config.Base then max 1 n else max 2 n in
    let workload = Ycsb.workload_of_string wl in
    let pacing =
      if open_rate > 0 then
        Loadgen.Open { interval = open_rate; max_queue }
      else Loadgen.Closed { window }
    in
    let fault_spec =
      if fault then Some { Loadgen.fault_after; fault_bit; fault_target }
      else None
    in
    (* A signature-fault campaign without recovery would fail-stop at
       detection; default to the recovery-trial cadence. A DMA-frame
       fault needs no checkpoints — rollback cannot repair it anyway;
       the ingress path's drop-and-redeliver lane is the recovery.
       Replay detection cuts its own per-chunk checkpoints, so the
       round-cadence default must stay off there. *)
    let checkpoint_every =
      if
        fault && fault_target = Loadgen.Sig_word && checkpoint_every = 0
        && detection <> Config.Replay
      then 2
      else checkpoint_every
    in
    let base =
      apply_detection ~detection ~replay_chunk_ticks ~replay_queue_depth
        ~replay_checkers
        {
          (mk_config ~checkpoint_every ~checkpoint_mode ~max_rollbacks
             ~exec_backend mode n arch false level seed ~with_net:true)
          with
          Config.ingress_check;
        }
    in
    let serve config =
      Loadgen.run ~config ~workload ~records ~requests ~pacing ~chunk
        ?fault:fault_spec ()
    in
    let print_summary tag (r : Loadgen.result) =
      let e2e = Rcoe_obs.Reqtrace.e2e r.Loadgen.rt in
      Printf.printf
        "%s:%s %.1f kops/s, %d/%d requests, p50=%d p99=%d p99.9=%d max=%d \
         cycles\n"
        tag
        (String.make (max 1 (11 - String.length tag)) ' ')
        r.Loadgen.kops_per_sec r.Loadgen.completed r.Loadgen.issued
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
      if ingress_check || r.Loadgen.ingress_dropped > 0 then begin
        Printf.printf
          "ingress:    checked=%d dropped=%d redelivered=%d retransmits=%d\n"
          r.Loadgen.ingress_checked r.Loadgen.ingress_dropped
          r.Loadgen.redelivered r.Loadgen.retransmits;
        if r.Loadgen.ingress_dropped > 0 then
          Printf.printf "ingress-stall: %s\n"
            (Rcoe_obs.Hdr.summary (Rcoe_obs.Reqtrace.ingress_hdr r.Loadgen.rt))
      end;
      if fault then begin
        let d = Rcoe_obs.Reqtrace.detect_hdr r.Loadgen.rt in
        let s = Rcoe_obs.Reqtrace.stall_hdr r.Loadgen.rt in
        Printf.printf "detect:     %s\n" (Rcoe_obs.Hdr.summary d);
        Printf.printf "stall:      %s\n" (Rcoe_obs.Hdr.summary s);
        Printf.printf "recovery:   %d rollbacks\n" r.Loadgen.rollbacks
      end;
      if base.Config.detection = Config.Replay then
        print_replay_summary r.Loadgen.sys;
      if r.Loadgen.stalled then Printf.printf "stalled:    true\n";
      match System.halted r.Loadgen.sys with
      | Some h ->
          Printf.printf "halted:     %s\n" (System.halt_reason_to_string h)
      | None -> ()
    in
    let emit_artifacts (r : Loadgen.result) ~engine =
      (match json_out with
      | Some "-" ->
          print_endline
            (Rcoe_obs.Json.to_string (Loadgen.report_json r ~engine))
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc
                (Rcoe_obs.Json.to_string (Loadgen.report_json r ~engine)));
          Printf.printf "wrote:      %s\n" path
      | None -> ());
      match trace_out with
      | Some path ->
          Rcoe_obs.Export.write_chrome
            ~extra:(Rcoe_obs.Reqtrace.chrome_events r.Loadgen.rt)
            ~path
            (System.trace r.Loadgen.sys);
          Printf.printf "wrote:      %s\n" path
      | None -> ()
    in
    Printf.printf "config:     %s on %s, level %s, YCSB-%s, %s\n"
      (Config.replicas_label base)
      (Rcoe_machine.Arch.to_string arch)
      (Config.sync_level_to_string level)
      wl
      (match pacing with
      | Loadgen.Closed { window } -> Printf.sprintf "closed window %d" window
      | Loadgen.Open { interval; _ } ->
          Printf.sprintf "open 1/%d cycles" interval);
    if check then begin
      let program =
        Loadgen.program_for ~config:base ~workload ~records ~requests
      in
      let par_cfg = apply_engine ~program ~parallel:true base in
      let seq_res = serve base in
      let par_res = serve par_cfg in
      print_summary "sequential" seq_res;
      print_summary "parallel" par_res;
      print_detail seq_res;
      let fail = ref [] in
      if seq_res.Loadgen.outcome_log <> par_res.Loadgen.outcome_log then
        fail :=
          Printf.sprintf "outcome logs differ (digest %08x vs %08x)"
            seq_res.Loadgen.outcome_digest par_res.Loadgen.outcome_digest
          :: !fail;
      if seq_res.Loadgen.end_sigs <> par_res.Loadgen.end_sigs then
        fail := "end-state signatures differ" :: !fail;
      if
        System.now seq_res.Loadgen.sys <> System.now par_res.Loadgen.sys
      then fail := "cycle counts differ" :: !fail;
      emit_artifacts seq_res ~engine:"sequential";
      match !fail with
      | [] ->
          Printf.printf "check:      ok (%d outcomes identical across engines)\n"
            (List.length seq_res.Loadgen.outcome_log)
      | msgs ->
          List.iter (fun m -> Printf.eprintf "check:      DIVERGED: %s\n" m) msgs;
          exit 1
    end
    else begin
      let config =
        apply_engine
          ~program:(Loadgen.program_for ~config:base ~workload ~records ~requests)
          ~parallel base
      in
      let res = serve config in
      print_summary (Config.engine_to_string config.Config.engine) res;
      print_detail res;
      emit_artifacts res ~engine:(Config.engine_to_string config.Config.engine)
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ mode_arg $ replicas_arg $ arch_arg $ level_arg $ seed_arg
      $ ycsb_arg $ records_arg $ requests_arg $ window_arg $ open_rate_arg
      $ max_queue_arg $ checkpoint_every_arg $ checkpoint_mode_arg
      $ max_rollbacks_arg $ fault_arg $ fault_after_arg $ fault_bit_arg
      $ fault_target_arg $ ingress_check_arg $ parallel_arg $ exec_backend_arg
      $ detection_arg $ replay_chunk_ticks_arg $ replay_queue_depth_arg
      $ replay_checkers_arg $ json_arg $ trace_out_arg $ check_arg $ chunk_arg)

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
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc:"workload name")
  in
  let counted_arg =
    Arg.(value & flag & info [ "branch-count" ] ~doc:"apply the branch-counting pass")
  in
  let run wl counted =
    let program = program_of_name wl ~branch_count:counted in
    Printf.printf "%s: %d instructions, %d data words%s\n\n"
      program.Rcoe_isa.Program.name
      (Rcoe_isa.Program.instruction_count program)
      program.Rcoe_isa.Program.data_words
      (if counted then " (branch-counted)" else "");
    print_string (Rcoe_isa.Program.disassemble program)
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ wl_arg $ counted_arg)

(* Parallel-eligibility verdicts for the lint front end: every workload
   is judged as the guest of a networked configuration under each
   coupling mode — exactly what decides whether `--parallel` would
   admit it (see [Eligibility]). The CC/LC verdicts can differ because
   the analyzer models the `get_info` driver-mode constant and prunes
   the path the mode never takes. *)
let elig_modes = [ ("cc", Config.CC); ("lc", Config.LC); ("base", Config.Base) ]

let elig_config ?(ingress_check = false) mode =
  {
    Config.default with
    Config.mode;
    nreplicas = (if mode = Config.Base then 1 else 2);
    with_net = true;
    exception_barriers = true;
    ingress_check;
  }

let eligibility_of ?ingress_check program mode =
  Eligibility.check ~config:(elig_config ?ingress_check mode) ~program

let lint_cmd =
  let doc =
    "statically analyze workloads for replication safety (LC_safe / \
     CC_required / Rejected) and parallel-engine eligibility"
  in
  let wl_arg =
    Arg.(value & opt (some string) None
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
  let verdict_str r =
    Rcoe_isa.Lint.verdict_to_string r.Rcoe_isa.Lint.verdict
  in
  let count sev r =
    List.length
      (List.filter
         (fun f -> f.Rcoe_isa.Lint.f_severity = sev)
         r.Rcoe_isa.Lint.findings)
  in
  let json_of_finding f =
    Rcoe_obs.Json.Obj
      [
        ( "addr",
          match f.Rcoe_isa.Lint.f_addr with
          | Some a -> Rcoe_obs.Json.Int a
          | None -> Rcoe_obs.Json.Null );
        ("rule", Rcoe_obs.Json.String f.Rcoe_isa.Lint.f_rule);
        ( "severity",
          Rcoe_obs.Json.String
            (Rcoe_isa.Lint.severity_to_string f.Rcoe_isa.Lint.f_severity) );
        ("message", Rcoe_obs.Json.String f.Rcoe_isa.Lint.f_message);
      ]
  in
  (* Timing ([host_us]) is deliberately excluded: the JSON report, like
     the sweep lines, is bit-reproducible for a given build. *)
  let json_of_elig e =
    Rcoe_obs.Json.Obj
      [
        ("eligible", Rcoe_obs.Json.Bool (Eligibility.eligible e));
        ("accesses", Rcoe_obs.Json.Int e.Eligibility.n_accesses);
        ("rounds", Rcoe_obs.Json.Int e.Eligibility.rounds);
        ( "diagnostics",
          Rcoe_obs.Json.List
            (List.map
               (fun d ->
                 Rcoe_obs.Json.Obj
                   [
                     ( "addr",
                       match d.Eligibility.d_addr with
                       | Some a -> Rcoe_obs.Json.Int a
                       | None -> Rcoe_obs.Json.Null );
                     ("message", Rcoe_obs.Json.String d.Eligibility.d_message);
                   ])
               (Eligibility.diags e)) );
      ]
  in
  let json_of_workload name counted =
    let program = lintable_program name ~branch_count:counted in
    let r = analyze_program program in
    ( r,
      Rcoe_obs.Json.Obj
        [
          ("workload", Rcoe_obs.Json.String name);
          ("branch_counted", Rcoe_obs.Json.Bool counted);
          ("verdict", Rcoe_obs.Json.String (verdict_str r));
          ( "findings",
            Rcoe_obs.Json.List
              (List.map json_of_finding r.Rcoe_isa.Lint.findings) );
          ( "parallel_eligibility",
            Rcoe_obs.Json.Obj
              (List.map
                 (fun (label, mode) ->
                   (label, json_of_elig (eligibility_of program mode)))
                 elig_modes) );
        ] )
  in
  let elig_label e =
    if Eligibility.eligible e then "eligible"
    else
      Printf.sprintf "ineligible:%d" (List.length (Eligibility.diags e))
  in
  let lint_one name counted =
    let program = lintable_program name ~branch_count:counted in
    let r = analyze_program program in
    Printf.printf "%s%s: %s\n" name
      (if counted then " (branch-counted)" else "")
      (verdict_str r);
    let roots = r.Rcoe_isa.Lint.cfg.Rcoe_isa.Cfg.roots in
    Printf.printf "thread roots: %s\n\n"
      (String.concat ", "
         (List.map
            (fun (a, m) ->
              Printf.sprintf "%d (x%s)" a
                (if m >= 2 then "2+" else string_of_int m))
            roots));
    (match r.Rcoe_isa.Lint.findings with
    | [] -> print_endline "no findings"
    | fs ->
        let t =
          Rcoe_util.Table.create
            ~headers:[ "addr"; "severity"; "rule"; "finding" ]
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
      (fun (label, mode) ->
        let e = eligibility_of program mode in
        (match e.Eligibility.verdict with
        | Eligibility.Eligible ->
            Printf.printf
              "  %-5s eligible (%d accesses proven device-clean, %d summary \
               rounds)\n"
              (label ^ ":") e.Eligibility.n_accesses e.Eligibility.rounds
        | Eligibility.Ineligible ds ->
            Printf.printf "  %-5s ineligible (%d diagnostic%s)\n" (label ^ ":")
              (List.length ds)
              (if List.length ds = 1 then "" else "s");
            List.iter
              (fun d -> Printf.printf "        %s\n" d.Eligibility.d_message)
              ds))
      elig_modes;
    r.Rcoe_isa.Lint.verdict <> Rcoe_isa.Lint.Rejected
  in
  let lint_all () =
    let t =
      Rcoe_util.Table.create
        ~headers:
          [ "workload"; "verdict"; "counted verdict"; "warnings"; "infos";
            "par-eligible" ]
    in
    let ok = ref true in
    List.iter
      (fun name ->
        let program = lintable_program name ~branch_count:false in
        let plain = analyze_program program in
        let counted = analyze_program (lintable_program name ~branch_count:true) in
        if
          plain.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
          || counted.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
        then ok := false;
        let par =
          List.filter_map
            (fun (label, mode) ->
              if Eligibility.eligible (eligibility_of program mode) then
                Some label
              else None)
            elig_modes
        in
        Rcoe_util.Table.add_row t
          [
            name;
            verdict_str plain;
            verdict_str counted;
            string_of_int (count Rcoe_isa.Lint.Warning plain);
            string_of_int (count Rcoe_isa.Lint.Info plain);
            (if par = [] then "-" else String.concat "," par);
          ])
      lintable_names;
    Rcoe_util.Table.print t;
    !ok
  in
  (* One line per workload, no timing, fixed field order: the format the
     checked-in @lint-sweep expectations file pins, so any verdict drift
     — lint or eligibility — shows up as a diff. *)
  let lint_sweep () =
    let ok = ref true in
    List.iter
      (fun name ->
        let program = lintable_program name ~branch_count:false in
        let plain = analyze_program program in
        let counted = analyze_program (lintable_program name ~branch_count:true) in
        if
          plain.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
          || counted.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
        then ok := false;
        Printf.printf "%s verdict=%s counted=%s warnings=%d infos=%d %s\n" name
          (verdict_str plain) (verdict_str counted)
          (count Rcoe_isa.Lint.Warning plain)
          (count Rcoe_isa.Lint.Info plain)
          (String.concat " "
             (List.map
                (fun (label, mode) ->
                  Printf.sprintf "par.%s=%s" label
                    (elig_label (eligibility_of program mode)))
                elig_modes));
        (* The KV guest is the one workload whose footprint is
           configuration-dependent: the analyzer models the get_info
           ingress flag, so the checksum loop (and its MMIO reads) only
           exists in checked configurations. Pin that verdict too. *)
        if String.equal name "kvstore" then
          Printf.printf
            "%s+ingress verdict=%s counted=%s warnings=%d infos=%d %s\n" name
            (verdict_str plain) (verdict_str counted)
            (count Rcoe_isa.Lint.Warning plain)
            (count Rcoe_isa.Lint.Info plain)
            (String.concat " "
               (List.map
                  (fun (label, mode) ->
                    Printf.sprintf "par.%s=%s" label
                      (elig_label
                         (eligibility_of ~ingress_check:true program mode)))
                  elig_modes)))
      lintable_names;
    !ok
  in
  let lint_json wl counted =
    match wl with
    | Some name ->
        let r, j = json_of_workload name counted in
        print_endline (Rcoe_obs.Json.to_string j);
        r.Rcoe_isa.Lint.verdict <> Rcoe_isa.Lint.Rejected
    | None ->
        let ok = ref true in
        let js =
          List.map
            (fun name ->
              let r, j = json_of_workload name false in
              let counted =
                analyze_program (lintable_program name ~branch_count:true)
              in
              if
                r.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
                || counted.Rcoe_isa.Lint.verdict = Rcoe_isa.Lint.Rejected
              then ok := false;
              match j with
              | Rcoe_obs.Json.Obj fields ->
                  Rcoe_obs.Json.Obj
                    (fields
                    @ [
                        ( "counted_verdict",
                          Rcoe_obs.Json.String (verdict_str counted) );
                      ])
              | other -> other)
            lintable_names
        in
        print_endline
          (Rcoe_obs.Json.to_string
             (Rcoe_obs.Json.Obj [ ("workloads", Rcoe_obs.Json.List js) ]));
        !ok
  in
  let run wl counted json sweep =
    let ok =
      if sweep then lint_sweep ()
      else if json then lint_json wl counted
      else
        match wl with Some name -> lint_one name counted | None -> lint_all ()
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ wl_arg $ counted_arg $ json_arg $ sweep_arg)

let () =
  let doc = "redundant co-execution on a simulated COTS multicore" in
  let info = Cmd.info "rcoe_run" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; kv_cmd; serve_cmd; trace_cmd; recover_cmd; disasm_cmd;
            lint_cmd ]))
