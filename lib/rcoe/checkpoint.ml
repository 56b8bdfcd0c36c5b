open Rcoe_machine
open Rcoe_kernel

module Fletcher = Rcoe_checksum.Fletcher

(* A captured page: its words, never written once captured, so
   snapshots share it, and their Fletcher block sums, computed on first
   use. The sums sit in an [Atomic] because a checker domain may compute
   or read them while the primary does too. *)
type page = { pg_words : int array; pg_sums : (int * int) Atomic.t }

type region =
  | R_full of page array
  | R_delta of { r_len : int; r_pages : (int * page) list }

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

let unsummed = (-1, -1)
let page_of words = { pg_words = words; pg_sums = Atomic.make unsummed }

let page_sums pg =
  let s = Atomic.get pg.pg_sums in
  if s != unsummed then s
  else begin
    let words = pg.pg_words in
    let s = Fletcher.block_sums words ~pos:0 ~len:(Array.length words) in
    Atomic.set pg.pg_sums s;
    s
  end

(* Most of a partition is never written: a capture without a base
   copies only the pages that hold a non-zero word and shares this one
   (its sums are those of zeros) for the rest. *)
let zero_page =
  { pg_words = Array.make Mem.page_size 0; pg_sums = Atomic.make (0, 0) }

let region_len = function
  | R_full [||] -> 0
  | R_full pages ->
      let n = Array.length pages in
      ((n - 1) lsl Mem.page_shift) + Array.length pages.(n - 1).pg_words
  | R_delta d -> d.r_len

let pages_words pages =
  List.fold_left (fun n (_, pg) -> n + Array.length pg.pg_words) 0 pages

(* The cost basis: a full region counts whole, whatever pages the host
   shared with an older image. *)
let region_copied = function
  | R_full _ as r -> region_len r
  | R_delta d -> pages_words d.r_pages

(* A delta whose pages cover the whole region (pages are disjoint by
   construction, so coverage is just the word count) holds every page,
   in order: it is self-contained. *)
let complete_pages ~r_len r_pages =
  if pages_words r_pages <> r_len then
    invalid_arg "Checkpoint: unresolvable delta (no base)";
  Array.of_list (List.map snd r_pages)

let apply_pages pages r_pages = List.iter (fun (i, pg) -> pages.(i) <- pg) r_pages

(* Fold an evicted, fully-resolved base region under a newer region,
   producing the newer snapshot's self-contained image. The delta's
   pages move into the base's page array, so each eviction costs
   O(dirty pages) and copies no word. *)
let fold_region ~base region =
  match (region, base) with
  | R_full _, _ -> region
  | R_delta d, Some (R_full pages) ->
      apply_pages pages d.r_pages;
      R_full pages
  | R_delta _, Some (R_delta _) ->
      invalid_arg "Checkpoint: folding onto an unresolved base"
  | R_delta d, None -> R_full (complete_pages ~r_len:d.r_len d.r_pages)

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

(* Eviction folds the oldest snapshot's page arrays into its successor,
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

(* Capture one region. [Full] shares every clean page with [prev], the
   region's image memory was last synced to, and copies the dirty
   ones; without [prev] it copies every page that is not all zeros. *)
let capture_region mem ~kind ~prev ~base ~len =
  let copy (off, blen) =
    (off lsr Mem.page_shift, page_of (Mem.read_block mem (base + off) blen))
  in
  match (kind, prev) with
  | Delta, _ -> R_delta { r_len = len; r_pages = List.map copy (dirty_spans mem ~base ~len) }
  | Full, Some (R_full old as r) when region_len r = len ->
      let pages = Array.copy old in
      apply_pages pages (List.map copy (dirty_spans mem ~base ~len));
      R_full pages
  | Full, _ ->
      let pages = Array.make ((len + Mem.page_size - 1) lsr Mem.page_shift) zero_page in
      for i = 0 to Array.length pages - 1 do
        let off = i lsl Mem.page_shift in
        let blen = min Mem.page_size (len - off) in
        if blen < Mem.page_size || not (Mem.all_zero mem ~addr:(base + off) ~len:blen)
        then pages.(i) <- snd (copy (off, blen))
      done;
      R_full pages

let partition_of rid s =
  Option.map
    (fun i -> i.i_partition)
    (List.find_opt (fun i -> i.i_rid = rid) s.s_replicas)

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

let capture ?(clear_dirty = true) ?base mem (lay : Layout.t) ~kind ~cycle
    ~round_seq ~ticks ~prim ~replicas =
  let sh = lay.Layout.shared in
  let images =
    List.map
      (fun (rid, kern, finished) ->
        let p = lay.Layout.partitions.(rid) in
        {
          i_rid = rid;
          i_partition =
            capture_region mem ~kind
              ~prev:(Option.bind base (partition_of rid))
              ~base:p.Layout.p_base ~len:p.Layout.p_words;
          i_kernel = Kernel.snapshot kern;
          i_finished = finished;
        })
      replicas
  in
  let shared, dma =
    let prev_shared, prev_dma =
      match base with
      | Some b -> (Some b.s_shared, Some b.s_dma)
      | None -> (None, None)
    in
    ( capture_region mem ~kind ~prev:prev_shared ~base:sh.Layout.s_base
        ~len:sh.Layout.s_words,
      capture_region mem ~kind ~prev:prev_dma ~base:lay.Layout.dma_base
        ~len:lay.Layout.dma_words )
  in
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

(* Resolve a newest-first region chain into a complete page array
   (fresh; the pages are shared). *)
let rec resolve_chain = function
  | [] -> invalid_arg "Checkpoint: unresolvable delta chain"
  | R_full pages :: _ -> Array.copy pages
  | R_delta d :: older ->
      let pages =
        match older with
        | [] -> complete_pages ~r_len:d.r_len d.r_pages
        | _ -> resolve_chain older
      in
      apply_pages pages d.r_pages;
      pages

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

let resolve_partition t snap ~rid =
  let pages =
    resolve_chain (regions_for_slot (chain_from t snap) (partition_of rid))
  in
  Array.concat (Array.to_list (Array.map (fun pg -> pg.pg_words) pages))

(* Write [snap]'s regions back: a region it holds in full straight from
   its pages, a delta resolved down [chain]. With [synced], the snapshot
   memory was last synced to, a page that is clean and the same page
   there already holds its words and is skipped. *)
let write_back mem (lay : Layout.t) ?synced chain snap =
  let put base slot =
    let pages =
      match regions_for_slot chain slot with
      | [ R_full pages ] -> pages
      | regions -> resolve_chain regions
    in
    let held =
      match Option.bind synced slot with Some (R_full old) -> old | _ -> [||]
    in
    for i = 0 to Array.length pages - 1 do
      let addr = base + (i lsl Mem.page_shift) and pg = pages.(i) in
      if
        not
          (i < Array.length held
          && held.(i) == pg
          && not (Mem.page_is_dirty mem ~addr))
      then Mem.write_block mem addr pg.pg_words
    done
  in
  List.iter
    (fun img ->
      put lay.Layout.partitions.(img.i_rid).Layout.p_base (partition_of img.i_rid))
    snap.s_replicas;
  put lay.Layout.shared.Layout.s_base (fun s -> Some s.s_shared);
  put lay.Layout.dma_base (fun s -> Some s.s_dma)

let restore_memory mem lay t snap = write_back mem lay (chain_from t snap) snap

let restore_image ?synced mem lay snap = write_back mem lay ?synced [ snap ] snap

let add_sums ?mem ~base f = function
  | R_full pages ->
      for i = 0 to Array.length pages - 1 do
        let pg = pages.(i) and addr = base + (i lsl Mem.page_shift) in
        let len = Array.length pg.pg_words in
        Fletcher.add_block f ~len
          (match mem with
          | Some m when Mem.page_is_dirty m ~addr -> Mem.sums m ~addr ~len
          | _ -> page_sums pg)
      done
  | R_delta _ -> invalid_arg "Checkpoint.add_sums: a delta region"
