(* Tests for dirty-page incremental checkpointing: Mem write tracking
   and its first-out-of-range Abort payloads, the deferred-reduction
   checksum fast paths, page-shared ring images (eviction, and a
   rollback through a page the guest never writes), and the acceptance
   sweep proving that
   Config.Incremental restores bit-for-bit identically to Config.Full
   across LC/CC x DMR/TMR on both engines, at strictly lower charged
   checkpoint cost. *)

open Rcoe_machine
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Fletcher = Rcoe_checksum.Fletcher
module Metrics = Rcoe_obs.Metrics

let x86 = Arch.X86
let psz = Mem.page_size

(* --- Mem dirty bitmap ---------------------------------------------------- *)

let dirty_pages m = Mem.snapshot_dirty m ~addr:0 ~len:(Mem.size m)

let test_dirty_bitmap () =
  let m = Mem.create (8 * psz) in
  (* A fresh memory is fully clean. *)
  Alcotest.(check (list int)) "fresh is clean" [] (dirty_pages m);
  Alcotest.(check bool) "page_is_dirty clean" false
    (Mem.page_is_dirty m ~addr:0);
  (* write marks exactly the containing page. *)
  Mem.write m (2 * psz) 7;
  Alcotest.(check (list int)) "write marks its page" [ 2 * psz ]
    (dirty_pages m);
  Alcotest.(check bool) "page_is_dirty anywhere in page" true
    (Mem.page_is_dirty m ~addr:((2 * psz) + psz - 1));
  (* write_block spanning a page boundary marks both pages; results stay
     ascending and page-aligned. *)
  Mem.write_block m ((5 * psz) - 2) (Array.make 4 1);
  Alcotest.(check (list int)) "block marks span ascending"
    [ 2 * psz; 4 * psz; 5 * psz ]
    (dirty_pages m);
  Mem.clear_dirty m;
  Alcotest.(check (list int)) "clear_dirty" [] (dirty_pages m);
  (* fill, blit, and flip_bit go through the same tracking. *)
  Mem.fill m ~addr:psz ~len:1 3;
  Mem.blit m ~src:0 ~dst:(6 * psz) ~len:2;
  Mem.flip_bit m ~addr:(3 * psz) ~bit:0;
  Alcotest.(check (list int)) "fill/blit/flip all tracked"
    [ psz; 3 * psz; 6 * psz ]
    (dirty_pages m);
  (* snapshot_dirty windows: only pages intersecting [addr, addr+len). *)
  Alcotest.(check (list int)) "windowed snapshot" [ 3 * psz ]
    (Mem.snapshot_dirty m ~addr:(2 * psz) ~len:(2 * psz));
  Alcotest.(check (list int)) "empty window" []
    (Mem.snapshot_dirty m ~addr:0 ~len:0);
  (* Zero-length block ops at the end boundary are legal and clean. *)
  Mem.clear_dirty m;
  Mem.write_block m (Mem.size m) [||];
  Alcotest.(check (list int)) "empty write_block clean" [] (dirty_pages m);
  Alcotest.check_raises "snapshot_dirty bounds"
    (Invalid_argument "Mem.snapshot_dirty") (fun () ->
      ignore (Mem.snapshot_dirty m ~addr:0 ~len:(Mem.size m + 1)))

(* --- Abort payloads on block operations (regression) --------------------- *)

let test_block_abort_payloads () =
  let m = Mem.create 100 in
  (* A block op that starts in range but runs off the end must report
     the first out-of-range address, not the (valid) start address. *)
  Alcotest.check_raises "write_block overrun" (Mem.Abort 100) (fun () ->
      Mem.write_block m 90 (Array.make 20 0));
  Alcotest.check_raises "read_block overrun" (Mem.Abort 100) (fun () ->
      ignore (Mem.read_block m 95 10));
  Alcotest.check_raises "fill overrun" (Mem.Abort 100) (fun () ->
      Mem.fill m ~addr:99 ~len:2 0);
  Alcotest.check_raises "blit src overrun" (Mem.Abort 100) (fun () ->
      Mem.blit m ~src:98 ~dst:0 ~len:5);
  Alcotest.check_raises "blit dst overrun" (Mem.Abort 100) (fun () ->
      Mem.blit m ~src:0 ~dst:97 ~len:5);
  (* A start address beyond the end is itself the first bad address. *)
  Alcotest.check_raises "start past end" (Mem.Abort 140) (fun () ->
      Mem.write_block m 140 (Array.make 4 0));
  (* Negative start addresses keep reporting the start address. *)
  Alcotest.check_raises "negative start" (Mem.Abort (-3)) (fun () ->
      Mem.write_block m (-3) (Array.make 4 0));
  Alcotest.check_raises "negative len" (Mem.Abort 5) (fun () ->
      ignore (Mem.read_block m 5 (-1)));
  (* None of the failed ops may have dirtied anything. *)
  Alcotest.(check (list int)) "failed ops leave memory clean" []
    (dirty_pages m)

(* --- deferred-reduction checksum identity -------------------------------- *)

(* Sizes straddling the reduction block boundary, plus degenerate ones. *)
let checksum_sizes = [ 0; 1; 7; 4095; 4096; 4097; 9000 ]

let mk_words n =
  (* Deterministic, full-32-bit-range values (including ones whose low
     bits look "negative" to a naive masking bug). *)
  Array.init n (fun i -> (i * 0x9E3779B9) land 0xFFFFFFFF)

let test_fletcher_add_words_identity () =
  List.iter
    (fun n ->
      let ws = mk_words n in
      let bulk = Fletcher.create () and ref_ = Fletcher.create () in
      (* Non-zero starting state so carried accumulators are exercised. *)
      Fletcher.add_word bulk 0xDEADBEEF;
      Fletcher.add_word ref_ 0xDEADBEEF;
      Fletcher.add_words bulk ws;
      Array.iter (Fletcher.add_word ref_) ws;
      Alcotest.(check (pair int int))
        (Printf.sprintf "fletcher identical at n=%d" n)
        (Fletcher.value ref_) (Fletcher.value bulk))
    checksum_sizes

let test_signature_add_words_identity () =
  List.iter
    (fun n ->
      let ws = mk_words n in
      let ma = Mem.create 8 and mb = Mem.create 8 in
      Signature.reset ma ~base:0;
      Signature.reset mb ~base:0;
      Signature.add_word ma ~base:0 0xDEADBEEF;
      Signature.add_word mb ~base:0 0xDEADBEEF;
      Signature.add_words ma ~base:0 ws;
      Array.iter (Signature.add_word mb ~base:0) ws;
      Alcotest.(check bool)
        (Printf.sprintf "signature identical at n=%d" n)
        true
        (Signature.equal3 (Signature.read ma ~base:0)
           (Signature.read mb ~base:0));
      (* The bulk path must keep the signature page write-tracked. *)
      if n > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "bulk path marks dirty at n=%d" n)
          true
          (Mem.page_is_dirty ma ~addr:0))
    checksum_sizes

(* --- page-sum digests ------------------------------------------------------ *)

(* Block sums compose into the digest [add_words] computes over the
   concatenated words: block by block with a last block shorter than a
   page, then through a captured image's pages and through live memory
   against that image. The words carry bits above 32, which the sums
   fold away, so a composition that skipped the fold would differ. *)
let test_page_sum_digest () =
  let high i = (i * 0x9E3779B97F4A7C1) lxor (i lsl 40) in
  let start () =
    let f = Fletcher.create () in
    Fletcher.add_word f 0xDEADBEEF;
    f
  in
  let check_same label want got =
    Alcotest.(check (pair int int)) label (Fletcher.value want) (Fletcher.value got)
  in
  let n = (3 * psz) + 100 in
  let ws = Array.init n high in
  let whole = start () and composed = start () in
  Fletcher.add_words whole ws;
  let rec feed pos =
    if pos < n then begin
      let len = min psz (n - pos) in
      Fletcher.add_block composed ~len (Fletcher.block_sums ws ~pos ~len);
      feed (pos + len)
    end
  in
  feed 0;
  check_same "blocks compose to add_words" whole composed;
  (* The same through a checkpoint's pages: the shared region of a bare
     layout, mostly zero pages plus pages of high words. *)
  let lay = Rcoe_kernel.Layout.compute ~nreplicas:1 ~user_words:psz in
  let sh = lay.Rcoe_kernel.Layout.shared in
  let base = sh.Rcoe_kernel.Layout.s_base and len = sh.Rcoe_kernel.Layout.s_words in
  let mem = Mem.create lay.Rcoe_kernel.Layout.total_words in
  Mem.write_block mem (base + 5) (Array.init ((2 * psz) + 9) high);
  let snap =
    Checkpoint.capture mem lay ~kind:Checkpoint.Full ~cycle:0 ~round_seq:0
      ~ticks:0 ~prim:0 ~replicas:[]
  in
  let live () =
    let f = start () in
    Fletcher.add_words f (Mem.read_block mem base len);
    f
  in
  let image = start () in
  Checkpoint.add_sums ~base image snap.Checkpoint.s_shared;
  check_same "an image's page sums compose to add_words" (live ()) image;
  Mem.write mem (base + (4 * psz) + 3) (high 77);
  Mem.write mem (base + len - 1) (high 78);
  let against = start () in
  Checkpoint.add_sums ~mem ~base against snap.Checkpoint.s_shared;
  check_same "live memory against its image composes to add_words" (live ())
    against

(* --- ring images outlive eviction ----------------------------------------- *)

(* Drive a real workload through four quiescent cuts, capturing each cut
   both as Full from memory alone (the reference) and incrementally
   (the engine's protocol: Full first, then Delta against the ring's
   newest image, clearing the dirty flags). Pushing four images into a
   depth-2 ring drops two, yet every handle, the dropped ones included,
   restores the same memory as its Full twin. *)
let test_ring_images_outlive_eviction () =
  let config =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:9 ())
      with
      Config.exception_barriers = true;
    }
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()
  in
  let sys = System.create ~config ~program in
  let mem = (System.machine sys).Machine.mem in
  let lay = System.layout sys in
  let capture ?clear_dirty ?base ~kind () =
    let replicas =
      List.map
        (fun rid -> (rid, System.kernel sys rid, System.replica_done sys rid))
        (System.live sys)
    in
    Checkpoint.capture ?clear_dirty ?base mem lay ~kind ~cycle:(System.now sys)
      ~round_seq:0 ~ticks:0 ~prim:(System.primary sys) ~replicas
  in
  let incr = Checkpoint.create ~depth:2 in
  let cuts =
    List.map
      (fun i ->
        System.run sys ~max_cycles:25_000;
        Alcotest.(check bool)
          (Printf.sprintf "cut %d is mid-run" i)
          true
          ((not (System.finished sys)) && System.halted sys = None);
        let f = capture ~clear_dirty:false ~kind:Checkpoint.Full () in
        let kind =
          if Checkpoint.count incr = 0 then Checkpoint.Full
          else Checkpoint.Delta
        in
        let d = capture ?base:(Checkpoint.newest incr) ~kind () in
        Checkpoint.push incr d;
        (f, d))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "ring bounded" 2 (Checkpoint.count incr);
  Alcotest.(check int) "ring counts every push" 4 (Checkpoint.taken incr);
  let memory () = Mem.read_block mem 0 (Mem.size mem) in
  List.iteri
    (fun i (f, d) ->
      let label = Printf.sprintf "cut %d%s" (i + 1) (if i < 2 then " (dropped)" else "") in
      List.iter
        (fun rid ->
          Alcotest.(check bool)
            (Printf.sprintf "%s replica %d identical" label rid)
            true
            (Checkpoint.partition_words f ~rid = Checkpoint.partition_words d ~rid))
        (System.live sys);
      Checkpoint.restore_image mem lay f;
      let want = memory () in
      Checkpoint.restore_image mem lay d;
      Alcotest.(check bool) (label ^ ": restored memory identical") true
        (want = memory ());
      (* The O(dirty) claim: the delta captures copied strictly fewer
         words than their Full twins, and accounting balances. *)
      Alcotest.(check int)
        (label ^ ": words accounting")
        (Checkpoint.total_words f) (Checkpoint.total_words d);
      if i > 0 then
        Alcotest.(check bool) (label ^ ": delta is smaller") true
          (Checkpoint.words d < Checkpoint.words f))
    cuts;
  (* A Delta without a base holds only the dirty pages: no ring or
     restore takes it, and a refused restore writes nothing. *)
  Mem.clear_dirty mem;
  let hole = capture ~kind:Checkpoint.Delta () in
  Alcotest.check_raises "push refuses a baseless delta"
    (Invalid_argument "Checkpoint.push: a Delta captured without a base")
    (fun () -> Checkpoint.push incr hole);
  let before = memory () in
  Alcotest.check_raises "restore refuses a baseless delta"
    (Invalid_argument "Checkpoint.restore_image: a Delta captured without a base")
    (fun () -> Checkpoint.restore_image mem lay hole);
  Alcotest.(check bool) "refused restore wrote nothing" true (before = memory ());
  Alcotest.(check int) "refused push stored nothing" 4 (Checkpoint.taken incr)

(* --- a ring rollback restores a page the guest never writes ------------ *)

(* Ring images share every page not written since the image before, and
   a rollback writes only the pages that are dirty or differ. A bit
   flipped in a page replica 1's guest never writes, together with its
   signature word, is still undone: the flip itself marks the page
   dirty. *)
let test_ring_rollback_unwritten_page () =
  let mem sys = (System.machine sys).Machine.mem in
  let program () =
    Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()
  in
  List.iter
    (fun backend ->
      let name = Config.exec_backend_to_string backend ^ ": " in
      let config =
        {
          (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~seed:11 ())
          with
          Config.exec_backend = backend;
          exception_barriers = true;
          masking = false;
          barrier_timeout = 600_000;
          checkpoint_every = 2;
          checkpoint_depth = 3;
          max_rollbacks = 8;
        }
      in
      (* Without checkpoints nothing clears the dirty flags, so the
         pages still clean at the end are the ones the run never
         writes. *)
      let plain =
        System.create
          ~config:{ config with Config.checkpoint_every = 0 }
          ~program:(program ())
      in
      Mem.clear_dirty (mem plain);
      System.run plain ~max_cycles:60_000_000;
      let p = (System.layout plain).Rcoe_kernel.Layout.partitions.(1) in
      let last = p.Rcoe_kernel.Layout.p_base + p.Rcoe_kernel.Layout.p_words in
      let rec unwritten page =
        if page < p.Rcoe_kernel.Layout.p_base then
          Alcotest.fail "the guest writes every page of its partition"
        else if Mem.page_is_dirty (mem plain) ~addr:page then
          unwritten (page - Mem.page_size)
        else page
      in
      let addr = unwritten (last - Mem.page_size) + 17 in
      let sys = System.create ~config ~program:(program ()) in
      System.run sys ~max_cycles:60_000;
      Alcotest.(check bool) (name ^ "checkpointed before the flip") true
        (System.checkpoints_taken sys > 0);
      let word = Mem.read (mem sys) addr in
      Mem.flip_bit (mem sys) ~addr ~bit:7;
      Mem.flip_bit (mem sys) ~addr:(System.sig_base sys 1 + 1) ~bit:7;
      System.run sys ~max_cycles:60_000_000;
      Alcotest.(check bool) (name ^ "finished") true (System.finished sys);
      Alcotest.(check bool) (name ^ "recovered, not halted") true
        (System.halted sys = None);
      Alcotest.(check bool) (name ^ "rolled back") true
        (System.rollbacks sys <> []);
      Alcotest.(check int) (name ^ "the word restored") word
        (Mem.read (mem sys) addr);
      List.iter
        (fun rid ->
          Alcotest.(check string)
            (Printf.sprintf "%sfault-free output r%d" name rid)
            (System.output plain rid) (System.output sys rid))
        (System.live plain))
    [ Config.Interp; Config.Blocks ]

(* --- acceptance: Full vs Incremental, LC/CC x DMR/TMR, both engines ------ *)

let sum_hist sys name =
  match Metrics.find_histogram (System.metrics sys) name with
  | None -> 0.
  | Some h -> List.fold_left ( +. ) 0. (Metrics.samples h)

(* One faulty run: checkpointing on, a transient signature corruption
   mid-run, recovery by rollback. masking = false so TMR also recovers
   by rollback instead of masking the fault away. *)
let faulty_run ~mode ~nreplicas ~engine ~ckpt_mode =
  let config =
    {
      (Runner.config_for ~mode ~nreplicas ~arch:x86 ~seed:11 ())
      with
      Config.engine;
      exception_barriers = true;
      masking = false;
      barrier_timeout = 600_000;
      checkpoint_every = 2;
      checkpoint_depth = 3;
      max_rollbacks = 8;
      checkpoint_mode = ckpt_mode;
    }
  in
  let program =
    Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()
  in
  let sys = System.create ~config ~program in
  System.run sys ~max_cycles:60_000;
  Mem.flip_bit (System.machine sys).Machine.mem
    ~addr:(System.sig_base sys 1 + 1) ~bit:7;
  System.run sys ~max_cycles:60_000_000;
  sys

let check_engines_identical ~label a b =
  Alcotest.(check int) (label ^ ": final cycle") (System.now a) (System.now b);
  Alcotest.(check bool) (label ^ ": rollbacks") true
    (System.rollbacks a = System.rollbacks b);
  Alcotest.(check int)
    (label ^ ": checkpoints")
    (System.checkpoints_taken a)
    (System.checkpoints_taken b);
  List.iter
    (fun rid ->
      Alcotest.(check string)
        (Printf.sprintf "%s: output r%d" label rid)
        (System.output a rid) (System.output b rid))
    (System.live a)

let sweep_config ~mode ~nreplicas () =
  let name =
    Printf.sprintf "%s-%d" (Config.mode_to_string mode) nreplicas
  in
  let run engine ckpt_mode = faulty_run ~mode ~nreplicas ~engine ~ckpt_mode in
  let sf = run Config.Sequential Config.Full in
  let pf = run Config.Parallel Config.Full in
  let si = run Config.Sequential Config.Incremental in
  let pi = run Config.Parallel Config.Incremental in
  List.iter
    (fun (l, sys) ->
      Alcotest.(check bool) (name ^ l ^ ": finished") true
        (System.finished sys);
      Alcotest.(check bool) (name ^ l ^ ": recovered, no halt") true
        (System.halted sys = None);
      Alcotest.(check bool) (name ^ l ^ ": rolled back") true
        (System.rollbacks sys <> []);
      Alcotest.(check string) (name ^ l ^ ": correct output") "........"
        (System.output sys 0))
    [ ("/seq-full", sf); ("/par-full", pf); ("/seq-incr", si);
      ("/par-incr", pi) ];
  (* Both engines agree bit-for-bit within each checkpoint mode. *)
  check_engines_identical ~label:(name ^ "/full seq=par") sf pf;
  check_engines_identical ~label:(name ^ "/incr seq=par") si pi;
  (* Incremental is observably equivalent to Full: same recovered
     outputs on every replica. (Cycle counts legitimately differ - the
     capture stall is mode-dependent.) *)
  List.iter
    (fun rid ->
      Alcotest.(check string)
        (Printf.sprintf "%s: full=incr output r%d" name rid)
        (System.output sf rid) (System.output si rid))
    (System.live sf);
  (* And strictly cheaper: fewer charged checkpoint cycles end-to-end. *)
  Alcotest.(check bool) (name ^ ": incremental charges less") true
    (sum_hist si "ckpt.cost_cycles" < sum_hist sf "ckpt.cost_cycles")

let test_sweep_lc_dmr () = sweep_config ~mode:Config.LC ~nreplicas:2 ()
let test_sweep_lc_tmr () = sweep_config ~mode:Config.LC ~nreplicas:3 ()
let test_sweep_cc_dmr () = sweep_config ~mode:Config.CC ~nreplicas:2 ()
let test_sweep_cc_tmr () = sweep_config ~mode:Config.CC ~nreplicas:3 ()

let suite =
  [
    Alcotest.test_case "dirty bitmap semantics" `Quick test_dirty_bitmap;
    Alcotest.test_case "block-op abort payloads" `Quick
      test_block_abort_payloads;
    Alcotest.test_case "fletcher add_words identity" `Quick
      test_fletcher_add_words_identity;
    Alcotest.test_case "signature add_words identity" `Quick
      test_signature_add_words_identity;
    Alcotest.test_case "page-sum digest identity" `Quick test_page_sum_digest;
    Alcotest.test_case "ring images outlive eviction" `Quick
      test_ring_images_outlive_eviction;
    Alcotest.test_case "ring rollback restores an unwritten page" `Quick
      test_ring_rollback_unwritten_page;
    Alcotest.test_case "full=incr sweep LC-DMR" `Slow test_sweep_lc_dmr;
    Alcotest.test_case "full=incr sweep LC-TMR" `Slow test_sweep_lc_tmr;
    Alcotest.test_case "full=incr sweep CC-DMR" `Slow test_sweep_cc_dmr;
    Alcotest.test_case "full=incr sweep CC-TMR" `Slow test_sweep_cc_tmr;
  ]
