open Rcoe_machine
open Rcoe_kernel

module Fletcher = Rcoe_checksum.Fletcher

(* A captured page: its words, never written once captured, so
   snapshots share it, and their Fletcher block sums, computed on first
   use. The sums sit in an [Atomic] because a checker domain may compute
   or read them while the primary does too. *)
type page = { pg_words : int array; pg_sums : (int * int) Atomic.t }

(* A region's pages in chunks of [1 lsl chunk_shift], the last chunk
   clipped: a capture against a base copies the chunk array and the
   chunks it writes into, and shares the others. [r_holes]: some page is
   [missing]. *)
type region = { r_len : int; r_chunks : page array array; r_holes : bool }

type kind = Full | Delta

type replica_image = {
  i_rid : int;
  i_partition : region;
  i_kernel : Kernel.snapshot;
  i_finished : bool;
}

type snap = {
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

let chunk_shift = 5
let chunk_mask = (1 lsl chunk_shift) - 1

let create ~depth =
  if depth < 1 then invalid_arg "Checkpoint.create: depth must be >= 1";
  { depth; snaps = []; taken = 0 }

let depth t = t.depth
let count t = List.length t.snaps
let taken t = t.taken
let empty_region = { r_len = 0; r_chunks = [||]; r_holes = false }

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

(* What a [Delta] capture without a base holds for a page it did not
   copy: the image is incomplete, and no ring, restore or digest takes
   it ([check_complete]). *)
let missing = page_of [||]

let npages len = (len + Mem.page_size - 1) lsr Mem.page_shift
let page r i = r.r_chunks.(i lsr chunk_shift).(i land chunk_mask)

(* [f i addr pg] for each page [pg] of region [r], [i]-th from [at], the
   region's base in memory. *)
let iter_pages f ~at r =
  for i = 0 to npages r.r_len - 1 do
    f i (at + (i lsl Mem.page_shift)) (page r i)
  done

let regions s =
  s.s_shared :: s.s_dma :: List.map (fun i -> i.i_partition) s.s_replicas

let total_words s = List.fold_left (fun n r -> n + r.r_len) 0 (regions s)

let check_complete what regions =
  if List.exists (fun r -> r.r_holes) regions then
    invalid_arg (what ^ ": a Delta captured without a base")

let push t snap =
  check_complete "Checkpoint.push" (regions snap);
  t.snaps <- snap :: t.snaps;
  t.taken <- t.taken + 1;
  if List.length t.snaps > t.depth then
    t.snaps <- List.filteri (fun i _ -> i < t.depth) t.snaps

let newest t = match t.snaps with [] -> None | s :: _ -> Some s

let drop_newest t =
  match t.snaps with [] -> () | _ :: rest -> t.snaps <- rest

let words s = s.s_words
let skipped_words s = s.s_skipped_words

(* Capture the region of [len] words at [at]; returns it with the words
   of its dirty pages. Against [prev], its image in the base, it copies
   the chunk array, the chunks it writes into and the dirty pages, and
   shares every other page. Without one it copies every page that holds
   a non-zero word, or with [holes] only the dirty pages, leaving
   [missing] for the rest. *)
let capture_region mem ~holes ~prev ~at ~len =
  let n = npages len in
  let page_len i = Int.min Mem.page_size (len - (i lsl Mem.page_shift)) in
  let dirty =
    List.map
      (fun addr -> (addr - at) lsr Mem.page_shift)
      (Mem.snapshot_dirty mem ~addr:at ~len)
  in
  let shared =
    match prev with Some p when p.r_len = len -> p.r_chunks | _ -> [||]
  in
  let chunks =
    if Array.length shared > 0 then Array.copy shared
    else
      Array.init
        ((n + chunk_mask) lsr chunk_shift)
        (fun c ->
          Array.make
            (Int.min (chunk_mask + 1) (n - (c lsl chunk_shift)))
            (if holes then missing else zero_page))
  in
  let copy i =
    let c = i lsr chunk_shift in
    if c < Array.length shared && chunks.(c) == shared.(c) then
      chunks.(c) <- Array.copy shared.(c);
    chunks.(c).(i land chunk_mask) <-
      page_of (Mem.read_block mem (at + (i lsl Mem.page_shift)) (page_len i))
  in
  if Array.length shared > 0 || holes then List.iter copy dirty
  else
    for i = 0 to n - 1 do
      let blen = page_len i in
      if
        blen < Mem.page_size
        || not (Mem.all_zero mem ~addr:(at + (i lsl Mem.page_shift)) ~len:blen)
      then copy i
    done;
  let dirty_words = List.fold_left (fun w i -> w + page_len i) 0 dirty in
  ( { r_len = len; r_chunks = chunks; r_holes = holes && dirty_words < len },
    dirty_words )

let partition_of rid s =
  Option.map
    (fun i -> i.i_partition)
    (List.find_opt (fun i -> i.i_rid = rid) s.s_replicas)

let capture ?(clear_dirty = true) ?base mem (lay : Layout.t) ~kind ~cycle
    ~round_seq ~ticks ~prim ~replicas =
  let holes = kind = Delta && Option.is_none base in
  let dirty = ref 0 in
  let region ~prev ~at ~len =
    let r, d = capture_region mem ~holes ~prev ~at ~len in
    dirty := !dirty + d;
    r
  in
  let images =
    List.map
      (fun (rid, kern, finished) ->
        let p = lay.Layout.partitions.(rid) in
        {
          i_rid = rid;
          i_partition =
            region
              ~prev:(Option.bind base (partition_of rid))
              ~at:p.Layout.p_base ~len:p.Layout.p_words;
          i_kernel = Kernel.snapshot kern;
          i_finished = finished;
        })
      replicas
  in
  let sh = lay.Layout.shared in
  let shared =
    region
      ~prev:(Option.map (fun b -> b.s_shared) base)
      ~at:sh.Layout.s_base ~len:sh.Layout.s_words
  in
  let dma =
    region
      ~prev:(Option.map (fun b -> b.s_dma) base)
      ~at:lay.Layout.dma_base ~len:lay.Layout.dma_words
  in
  if clear_dirty then Mem.clear_dirty mem;
  let total =
    List.fold_left (fun n i -> n + i.i_partition.r_len) (shared.r_len + dma.r_len) images
  in
  let copied = match kind with Full -> total | Delta -> !dirty in
  {
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

let partition_words snap ~rid =
  match partition_of rid snap with
  | None -> invalid_arg "Checkpoint.partition_words: no such replica"
  | Some r ->
      check_complete "Checkpoint.partition_words" [ r ];
      Array.concat
        (List.init (npages r.r_len) (fun i -> (page r i).pg_words))

let restore_image ?synced mem (lay : Layout.t) snap =
  check_complete "Checkpoint.restore_image" (regions snap);
  let put ~at r held =
    let held =
      match held with Some h when h.r_len = r.r_len -> h | _ -> empty_region
    in
    iter_pages
      (fun i addr pg ->
        if
          not
            (held.r_len > 0
            && page held i == pg
            && not (Mem.page_is_dirty mem ~addr))
        then Mem.write_block mem addr pg.pg_words)
      ~at r
  in
  List.iter
    (fun img ->
      put
        ~at:lay.Layout.partitions.(img.i_rid).Layout.p_base
        img.i_partition
        (Option.bind synced (partition_of img.i_rid)))
    snap.s_replicas;
  put ~at:lay.Layout.shared.Layout.s_base snap.s_shared
    (Option.map (fun s -> s.s_shared) synced);
  put ~at:lay.Layout.dma_base snap.s_dma (Option.map (fun s -> s.s_dma) synced)

let restore_memory mem lay _ring snap = restore_image mem lay snap

let add_sums ?mem ~base f r =
  check_complete "Checkpoint.add_sums" [ r ];
  iter_pages
    (fun _ addr pg ->
      let len = Array.length pg.pg_words in
      Fletcher.add_block f ~len
        (match mem with
        | Some m when Mem.page_is_dirty m ~addr -> Mem.sums m ~addr ~len
        | _ -> page_sums pg))
    ~at:base r
