open Rcoe_machine
open Rcoe_kernel

type region =
  | R_full of int array
  | R_delta of { r_len : int; r_pages : (int * int array) list }

type kind = Full | Delta

type replica_image = {
  i_rid : int;
  i_partition : region;
  i_kernel : Kernel.snapshot;
  i_finished : bool;
}

type snap = {
  s_kind : kind;
  s_cycle : int;
  s_round_seq : int;
  s_ticks : int;
  s_prim : int;
  s_shared : region;
  s_dma : region;
  s_replicas : replica_image list;
  s_words : int;
  s_skipped_words : int;
}

type t = {
  depth : int;
  mutable snaps : snap list;  (* newest first; length <= depth *)
  mutable taken : int;
}

let create ~depth =
  if depth < 1 then invalid_arg "Checkpoint.create: depth must be >= 1";
  { depth; snaps = []; taken = 0 }

let depth t = t.depth
let count t = List.length t.snaps
let taken t = t.taken
let to_list t = t.snaps

let region_len = function R_full a -> Array.length a | R_delta d -> d.r_len

let pages_words pages =
  List.fold_left (fun n (_, b) -> n + Array.length b) 0 pages

let region_copied = function
  | R_full a -> Array.length a
  | R_delta d -> pages_words d.r_pages

(* A delta whose pages cover the whole region (pages are disjoint by
   construction, so coverage is just the word count). Such a delta is
   self-contained: applying it over any base yields the same image. *)
let delta_complete ~r_len ~r_pages = pages_words r_pages = r_len

let apply_pages arr pages =
  List.iter (fun (off, block) -> Array.blit block 0 arr off (Array.length block)) pages

(* Fold an evicted, fully-resolved base region under a newer region,
   producing the newer snapshot's self-contained image. Reuses (and
   mutates) the base's arrays, so each eviction costs O(delta), not
   O(partition). *)
let fold_region ~base region =
  match (region, base) with
  | R_full _, _ -> region
  | R_delta d, Some (R_full arr) ->
      apply_pages arr d.r_pages;
      R_full arr
  | R_delta _, Some (R_delta _) ->
      invalid_arg "Checkpoint: folding onto an unresolved base"
  | R_delta d, None ->
      if not (delta_complete ~r_len:d.r_len ~r_pages:d.r_pages) then
        invalid_arg "Checkpoint: unresolvable delta (no base)";
      let arr = Array.make d.r_len 0 in
      apply_pages arr d.r_pages;
      R_full arr

(* Rewrite [snap] as a self-contained (all-[R_full]) snapshot using the
   evicted base directly below it. Replicas present only in the base
   were dead by [snap]'s capture and are dropped with it; replicas
   present only in [snap] were reintegrated in between, which fully
   dirties their partition, so their delta is complete on its own. *)
let fold_into ~evicted snap =
  let find_base rid =
    List.find_opt (fun i -> i.i_rid = rid) evicted.s_replicas
  in
  {
    snap with
    s_kind = Full;
    s_shared = fold_region ~base:(Some evicted.s_shared) snap.s_shared;
    s_dma = fold_region ~base:(Some evicted.s_dma) snap.s_dma;
    s_replicas =
      List.map
        (fun img ->
          let base =
            Option.map (fun b -> b.i_partition) (find_base img.i_rid)
          in
          { img with i_partition = fold_region ~base img.i_partition })
        snap.s_replicas;
  }

(* Eviction folds the oldest snapshot's arrays into its successor,
   mutating the one and replacing the other. *)
let push t snap =
  t.snaps <- snap :: t.snaps;
  t.taken <- t.taken + 1;
  if List.length t.snaps > t.depth then
    match List.rev t.snaps with
    | oldest :: next :: rest ->
        t.snaps <- List.rev (fold_into ~evicted:oldest next :: rest)
    | _ -> ()

let newest t = match t.snaps with [] -> None | s :: _ -> Some s

let drop_newest t =
  match t.snaps with [] -> () | _ :: rest -> t.snaps <- rest

let words s = s.s_words
let skipped_words s = s.s_skipped_words
let kind s = s.s_kind

let total_words s =
  List.fold_left
    (fun n i -> n + region_len i.i_partition)
    (region_len s.s_shared + region_len s.s_dma)
    s.s_replicas

(* What a [Delta] capture of a region copies: each dirty page as
   (region offset, words), the last one clipped to the region. *)
let dirty_spans mem ~base ~len =
  List.map
    (fun page ->
      let off = page - base in
      (off, min Mem.page_size (len - off)))
    (Mem.snapshot_dirty mem ~addr:base ~len)

let capture_region mem ~kind ~base ~len =
  match kind with
  | Full -> R_full (Mem.read_block mem base len)
  | Delta ->
      let r_pages =
        List.map
          (fun (off, blen) -> (off, Mem.read_block mem (base + off) blen))
          (dirty_spans mem ~base ~len)
      in
      R_delta { r_len = len; r_pages }

let delta_words mem (lay : Layout.t) ~rids =
  let dirty ~base ~len =
    List.fold_left (fun n (_, blen) -> n + blen) 0 (dirty_spans mem ~base ~len)
  in
  let sh = lay.Layout.shared in
  List.fold_left
    (fun n rid ->
      let p = lay.Layout.partitions.(rid) in
      n + dirty ~base:p.Layout.p_base ~len:p.Layout.p_words)
    (dirty ~base:sh.Layout.s_base ~len:sh.Layout.s_words
    + dirty ~base:lay.Layout.dma_base ~len:lay.Layout.dma_words)
    rids

let capture ?(clear_dirty = true) mem (lay : Layout.t) ~kind ~cycle ~round_seq
    ~ticks ~prim ~replicas =
  let sh = lay.Layout.shared in
  let images =
    List.map
      (fun (rid, kern, finished) ->
        let p = lay.Layout.partitions.(rid) in
        {
          i_rid = rid;
          i_partition =
            capture_region mem ~kind ~base:p.Layout.p_base ~len:p.Layout.p_words;
          i_kernel = Kernel.snapshot kern;
          i_finished = finished;
        })
      replicas
  in
  let shared = capture_region mem ~kind ~base:sh.Layout.s_base ~len:sh.Layout.s_words in
  let dma = capture_region mem ~kind ~base:lay.Layout.dma_base ~len:lay.Layout.dma_words in
  let copied =
    List.fold_left
      (fun n img -> n + region_copied img.i_partition)
      (region_copied shared + region_copied dma)
      images
  in
  let total =
    List.fold_left
      (fun n img -> n + region_len img.i_partition)
      (region_len shared + region_len dma)
      images
  in
  if clear_dirty then Mem.clear_dirty mem;
  {
    s_kind = kind;
    s_cycle = cycle;
    s_round_seq = round_seq;
    s_ticks = ticks;
    s_prim = prim;
    s_shared = shared;
    s_dma = dma;
    s_replicas = images;
    s_words = copied;
    s_skipped_words = total - copied;
  }

(* The newest-first chain of same-slot regions needed to resolve the
   head: stop at the first full image, or at a snapshot where the slot
   is absent (a reintegration gap — the delta just above it is
   complete by construction). *)
let regions_for_slot chain slot =
  let rec go = function
    | [] -> []
    | s :: rest -> (
        match slot s with
        | None -> []
        | Some (R_full _ as r) -> [ r ]
        | Some (R_delta _ as r) -> r :: go rest)
  in
  go chain

(* Resolve a newest-first region chain into a fresh full image. *)
let rec resolve_chain = function
  | [] -> invalid_arg "Checkpoint: unresolvable delta chain"
  | R_full arr :: _ -> Array.copy arr
  | R_delta d :: older ->
      let base =
        match older with
        | [] ->
            if not (delta_complete ~r_len:d.r_len ~r_pages:d.r_pages) then
              invalid_arg "Checkpoint: unresolvable delta chain";
            Array.make d.r_len 0
        | _ -> resolve_chain older
      in
      apply_pages base d.r_pages;
      base

(* [snap] and the ring entries below it, newest first: the chain its
   deltas resolve through ([snap] alone when it is not, or no longer,
   in the ring). *)
let chain_from t snap =
  let rec go = function
    | [] -> [ snap ]
    | s :: _ as chain when s == snap -> chain
    | _ :: rest -> go rest
  in
  go t.snaps

let partition_of rid s =
  Option.map
    (fun i -> i.i_partition)
    (List.find_opt (fun i -> i.i_rid = rid) s.s_replicas)

let resolve_partition t snap ~rid =
  resolve_chain (regions_for_slot (chain_from t snap) (partition_of rid))

(* Write [snap]'s regions back: a region it holds in full straight from
   its array, a delta resolved down [chain]. *)
let write_back mem (lay : Layout.t) chain snap =
  let put base slot =
    Mem.write_block mem base
      (match regions_for_slot chain slot with
      | [ R_full arr ] -> arr
      | regions -> resolve_chain regions)
  in
  List.iter
    (fun img ->
      put lay.Layout.partitions.(img.i_rid).Layout.p_base (partition_of img.i_rid))
    snap.s_replicas;
  put lay.Layout.shared.Layout.s_base (fun s -> Some s.s_shared);
  put lay.Layout.dma_base (fun s -> Some s.s_dma)

let restore_memory mem lay t snap = write_back mem lay (chain_from t snap) snap
let restore_image mem lay snap = write_back mem lay [ snap ] snap
