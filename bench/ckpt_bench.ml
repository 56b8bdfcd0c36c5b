(* Full-vs-incremental checkpoint capture benchmark.

   For each workload the bench drives the simulation in chunks and, at
   every chunk boundary (a quiescent point — see System.run), captures
   the same cut twice into two private rings:

   - a Full snapshot (dirty flags left untouched), and
   - an Incremental snapshot (the engine's protocol: Full for the
     ring's first image, then Delta against the ring's newest image,
     clearing the dirty flags).

   Both kinds therefore see the identical machine state, so the copied
   word counts are deterministic and the wall times are directly
   comparable. The bench also cross-checks the contract on the final
   capture: the incremental image must be bit-for-bit the full image.

   A second, end-to-end phase runs the same workload with the engine's
   own checkpointing (checkpoint_every > 0) under both
   Config.checkpoint_mode settings and reports the simulated
   ckpt.cost_cycles the replicas were charged — the figure the paper's
   recovery experiments trade against rollback re-execution distance.

   `dune exec bench/main.exe -- ckpt` prints the table; the same rows
   are the `ckpt` section of BENCH_baseline.json. *)

open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Metrics = Rcoe_obs.Metrics

let captures_per_run = 12

(* --- capture microbench -------------------------------------------------- *)

type side = {
  ring : Checkpoint.t;
  mutable words : int;
  mutable wall : float;
}

let mk_side () = { ring = Checkpoint.create ~depth:4; words = 0; wall = 0. }

let capture_into side ?clear_dirty ?base ~kind sys =
  let mem = (System.machine sys).Rcoe_machine.Machine.mem in
  let replicas =
    List.map
      (fun rid -> (rid, System.kernel sys rid, System.replica_done sys rid))
      (System.live sys)
  in
  let snap, wall =
    Schema.timed (fun () ->
        Checkpoint.capture ?clear_dirty ?base mem (System.layout sys) ~kind
          ~cycle:(System.now sys) ~round_seq:0 ~ticks:0
          ~prim:(System.primary sys) ~replicas)
  in
  side.wall <- side.wall +. wall;
  Checkpoint.push side.ring snap;
  side.words <- side.words + Checkpoint.words snap;
  snap

(* Capture the current cut as both kinds. Full first, without touching
   the dirty flags, so the incremental side's baseline is undisturbed. *)
let capture_pair ~full ~incr sys =
  let fsnap = capture_into full ~clear_dirty:false ~kind:Checkpoint.Full sys in
  let kind =
    if Checkpoint.count incr.ring = 0 then Checkpoint.Full
    else Checkpoint.Delta
  in
  let isnap = capture_into incr ?base:(Checkpoint.newest incr.ring) ~kind sys in
  (fsnap, isnap)

let check_identical ~name (fsnap, isnap) =
  List.iter
    (fun (img : Checkpoint.replica_image) ->
      let rid = img.Checkpoint.i_rid in
      let a = Checkpoint.partition_words fsnap ~rid in
      let b = Checkpoint.partition_words isnap ~rid in
      if a <> b then
        failwith
          (Printf.sprintf
             "ckpt bench: %s: incremental restore diverges from full \
              (replica %d)"
             name rid))
    fsnap.Checkpoint.s_replicas

(* One rep of the chunked capture phase; [drive] advances the workload
   and invokes its callback at every quiescent chunk boundary. *)
let capture_run ~name ~drive () =
  let full = mk_side () and incr = mk_side () in
  let taken = ref 0 in
  let last = ref None in
  drive (fun sys ->
      if !taken < captures_per_run then begin
        last := Some (capture_pair ~full ~incr sys);
        taken := !taken + 1
      end);
  (match !last with
  | Some pair -> check_identical ~name pair
  | None -> failwith (Printf.sprintf "ckpt bench: %s took no captures" name));
  (full, incr, !taken)

(* --- workload drivers ---------------------------------------------------- *)

let kv_config ~ckpt_mode ~every =
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2
       ~arch:Rcoe_machine.Arch.X86 ~seed:7 ~with_net:true ())
    with
    Config.checkpoint_every = every;
    checkpoint_mode = ckpt_mode;
    exception_barriers = true;
  }

(* lu-c at scale 8 runs ~0.5M cycles; the short tick interval gives the
   engine enough sync rounds to checkpoint at a realistic cadence. *)
let splash_scale = 8

let splash_config ?tick_interval ~ckpt_mode ~every () =
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2
       ~arch:Rcoe_machine.Arch.X86 ~seed:7 ?tick_interval ())
    with
    Config.checkpoint_every = every;
    checkpoint_mode = ckpt_mode;
    exception_barriers = true;
  }

let drive_kv on_boundary =
  (* The inject hook fires at every client chunk (400 cycles); sample
     every 24th so captures spread across the run. *)
  let calls = ref 0 in
  let inject sys =
    Stdlib.incr calls;
    if !calls mod 24 = 0 then on_boundary sys
  in
  ignore
    (Kv_run.run
       ~config:(kv_config ~ckpt_mode:Config.Full ~every:0)
       ~workload:Ycsb.A ~records:48 ~operations:128 ~inject ())

let drive_splash on_boundary =
  let program = Splash.program "lu-c" ~scale:splash_scale ~branch_count:false () in
  let sys =
    System.create
      ~config:(splash_config ~ckpt_mode:Config.Full ~every:0 ())
      ~program
  in
  let guard = ref 0 in
  while (not (System.finished sys)) && System.halted sys = None && !guard < 400 do
    System.run sys ~max_cycles:35_000;
    Stdlib.incr guard;
    if not (System.finished sys) then on_boundary sys
  done

(* --- end-to-end engine runs ---------------------------------------------- *)

let sum_hist sys name =
  match Metrics.find_histogram (System.metrics sys) name with
  | None -> 0
  | Some h -> int_of_float (List.fold_left ( +. ) 0. (Metrics.samples h))

let engine_kv ckpt_mode =
  let res =
    Kv_run.run
      ~config:(kv_config ~ckpt_mode ~every:8)
      ~workload:Ycsb.A ~records:48 ~operations:128 ()
  in
  (System.checkpoints_taken res.Kv_run.sys, sum_hist res.Kv_run.sys "ckpt.cost_cycles")

let engine_splash ckpt_mode =
  let program = Splash.program "lu-c" ~scale:splash_scale ~branch_count:false () in
  let sys =
    System.create
      ~config:(splash_config ~tick_interval:10_000 ~ckpt_mode ~every:2 ())
      ~program
  in
  System.run sys ~max_cycles:60_000_000;
  if not (System.finished sys) then
    failwith "ckpt bench: splash engine run did not finish";
  (System.checkpoints_taken sys, sum_hist sys "ckpt.cost_cycles")

(* --- measurement --------------------------------------------------------- *)

let measure_workload ~name ~drive ~engine =
  Printf.printf "  %-10s capture%!" name;
  let (full, incr, taken), median =
    Schema.repeat ~what:("ckpt " ^ name)
      ~identity:(fun (f, i, taken) -> (f.words, i.words, taken))
      (capture_run ~name ~drive)
  in
  (* End-to-end engine runs, one per checkpoint mode. The capture stall
     differs between modes, which shifts round timing, so the
     checkpoint counts can legitimately differ too. *)
  Printf.printf " engine-full%!";
  let full_ckpts, full_cost = engine Config.Full in
  Printf.printf " engine-incr%!";
  let incr_ckpts, incr_cost = engine Config.Incremental in
  print_newline ();
  if incr.words >= full.words then
    Printf.eprintf
      "ckpt: WARNING: %s: incremental copied no fewer words than full\n" name;
  if incr_cost >= full_cost then
    Printf.eprintf
      "ckpt: WARNING: %s: incremental charged no fewer cycles than full\n"
      name;
  Schema.(
    row name
      [
        exact ~col:"captures" "captures" taken;
        exact ~col:"full words" "full.words" full.words;
        info ~col:"full wall" "full.wall_s"
          (Secs (median (fun (f, _, _) -> f.wall)));
        exact ~col:"ckpt cost full" "full.cost_cycles" full_cost;
        exact "full.engine_checkpoints" full_ckpts;
        exact ~col:"incr words" "incremental.words" incr.words;
        info ~col:"incr wall" "incremental.wall_s"
          (Secs (median (fun (_, i, _) -> i.wall)));
        exact ~col:"ckpt cost incr" "incremental.cost_cycles" incr_cost;
        exact "incremental.engine_checkpoints" incr_ckpts;
      ])

let measure () =
  Printf.printf "Measuring checkpoint capture (%d captures x %d reps)\n%!"
    captures_per_run Schema.reps;
  [
    measure_workload ~name:"kvstore" ~drive:drive_kv ~engine:engine_kv;
    measure_workload ~name:"splash-lu-c" ~drive:drive_splash
      ~engine:engine_splash;
  ]
