(** Verified checkpoints for rollback recovery.

    A checkpoint is a consistent cut of the whole replicated state,
    taken right after a successful signature vote — the only moments
    the replicas are provably equivalent. Each snapshot holds every
    live replica's memory partition and kernel/core bookkeeping
    (via {!Rcoe_kernel.Kernel.snapshot}), the shared framework region,
    the DMA window, and the engine's logical clocks, so the engine can
    later rewind all of it at once and re-execute.

    {b Snapshot kinds.} Every region is held as pages of at most
    {!Rcoe_machine.Mem.page_size} words, never written once captured,
    so snapshots share them. A [Full] snapshot holds every page of every
    captured region. A [Delta] snapshot holds only the pages
    {!Rcoe_machine.Mem}'s write tracking reports dirty since the previous
    capture — O(dirty words) instead of O(partition) — and records the
    rest as skipped. Restoring a delta walks the ring's newest-first
    chain down to the nearest full snapshot and lays the deltas' pages
    over its pages, so the reconstructed state is bit-for-bit the image
    a [Full] capture at the same cut would have produced. Capture clears
    the dirty flags (by default), establishing the baseline for the next
    delta; the caller must therefore capture [Full] into an empty ring,
    and clear the flags again after a rollback restore (memory then
    equals the newest snapshot).

    Lockstep snapshots live in a bounded ring, newest first. Keeping
    more than one matters: a fault injected *after* a vote but *before*
    the next capture is frozen into the newest snapshot, and recovery
    must be able to escalate to an older, still-clean one (see
    [Sched.try_rollback]). The oldest ring entry is always
    self-contained (all-full regions): eviction folds the outgoing base
    into its successor by moving the delta's pages into the base's page
    arrays, in O(dirty pages) and without copying a word.

    {b Replay images.} Replay detection keeps no ring: each chunk starts
    from a standalone [Full] snapshot, which checker domains read while
    the primary runs on, so it must never be pushed into a ring. Each
    image is captured against the one memory was last synced to (the
    previous cut, or the image a rollback restored; see [~base] on
    {!capture}): it shares every page not written since and copies only
    the dirty ones, yet stays one complete, immutable snapshot. Restore
    works the same way round ([~synced] on {!restore_image}): it writes
    only the pages dirtied since the sync or held as a different page by
    the two images. Each page carries its Fletcher block sums, computed
    once on first use, so the digest of an image, or of live memory
    against its synced image ({!add_sums}), costs O(pages) plus the
    dirty pages' words.

    The engine above owns policy (when to capture, retry budgets,
    costs); this module owns the data. Device-internal state (e.g. the
    network device's queues) is outside the sphere of replication and
    is deliberately not captured — recovery campaigns use compute
    workloads.

    Capture and restore read and write every replica's partition (and
    the dirty bitmap) directly, so they must only run while replica
    execution is quiescent. Both engines guarantee this: the sequential
    engine is single-domain, and the parallel engine ({!Config.engine})
    parks all worker domains at a barrier before any round logic —
    including checkpoint capture and rollback restore — executes on the
    orchestrating domain. *)

type page
(** One captured page: at most {!Rcoe_machine.Mem.page_size} words and
    their Fletcher block sums. *)

type region =
  | R_full of page array
      (** Complete image: page [i] holds region words from
          [i * Mem.page_size], the last one clipped to the region. *)
  | R_delta of { r_len : int; r_pages : (int * page) list }
      (** Dirty pages only: [(page index, page)], ascending. [r_len] is
          the full region length. *)

type kind = Full | Delta

type replica_image = {
  i_rid : int;
  i_partition : region;
  i_kernel : Rcoe_kernel.Kernel.snapshot;
  i_finished : bool;
}

type snap = {
  s_kind : kind;
  s_cycle : int;  (** Capture cycle (rollback target, for reporting). *)
  s_round_seq : int;
  s_ticks : int;
  s_prim : int;
  s_shared : region;
  s_dma : region;
  s_replicas : replica_image list;  (** Live replicas at capture. *)
  s_words : int;
      (** Words the capture copies in the simulated machine (cost
          basis): every word of a [Full] snapshot, however many pages
          the host shared with an older one; the dirty pages of a
          [Delta]. *)
  s_skipped_words : int;  (** Clean words a [Full] capture would also have copied. *)
}

type t

val create : depth:int -> t
(** Raises [Invalid_argument] if [depth < 1]. *)

val depth : t -> int
val count : t -> int
(** Snapshots currently held (<= depth). *)

val taken : t -> int
(** Snapshots stored over the ring's lifetime. *)

val push : t -> snap -> unit
(** Store as newest. When the ring is full the oldest snapshot is
    evicted and folded into its successor, which becomes the new
    self-contained base (the delta's pages move into the evicted
    base's page arrays, so the fold is O(dirty pages)). Folding mutates
    the evicted base's page arrays in place and replaces its successor
    record, so a handle to either goes stale. *)

val newest : t -> snap option

val drop_newest : t -> unit
(** Recovery escalation: discard a snapshot that keeps failing. *)

val words : snap -> int
(** Words copied at capture — the O(dirty) figure for a [Delta]. *)

val skipped_words : snap -> int
val kind : snap -> kind

val total_words : snap -> int
(** Full size of the captured cut ([words + skipped] at capture time);
    what a restore writes back. *)

val to_list : t -> snap list
(** The ring, newest first (for tests and diagnostics). *)

val capture :
  ?clear_dirty:bool ->
  ?base:snap ->
  Rcoe_machine.Mem.t ->
  Rcoe_kernel.Layout.t ->
  kind:kind ->
  cycle:int ->
  round_seq:int ->
  ticks:int ->
  prim:int ->
  replicas:(int * Rcoe_kernel.Kernel.t * bool) list ->
  snap
(** Snapshot the given [(rid, kernel, finished)] replicas plus the
    shared and DMA regions. Call only at a verified quiescent point.
    [Delta] copies only pages dirty in [mem]'s write tracking; it is
    only meaningful when every capture since the ring's base also ran
    against the same tracking, so capture [Full] into an empty ring.
    A [Full] capture against [base] — the complete snapshot memory was
    last synced to, so every page clean in the tracking still holds its
    words — shares those pages with [base] and copies only the dirty
    ones; its cost basis ([s_words]) is still every word. [base] must
    not be a ring entry a later fold could mutate.
    Clears the dirty flags afterwards unless [clear_dirty:false]
    (which lets a differential harness capture the same cut twice). *)

val delta_words :
  Rcoe_machine.Mem.t -> Rcoe_kernel.Layout.t -> rids:int list -> int
(** The words a [Delta] capture of replicas [rids] would copy now: the
    dirty pages of their partitions, the shared region and the DMA
    window, each region's last page clipped to it. Call before the
    capture that clears the dirty flags. *)

val restore_memory : Rcoe_machine.Mem.t -> Rcoe_kernel.Layout.t -> t -> snap -> unit
(** Blit every captured partition, the shared region and the DMA window
    back, reconstructing delta regions from [t]'s chain below [snap].
    The caller pairs this with {!Rcoe_kernel.Kernel.restore} on each
    image, resetting its own engine state, and — under incremental
    checkpointing — {!Rcoe_machine.Mem.clear_dirty} (memory now equals
    the restored snapshot). A region [snap] holds in full is written
    straight from its array. A [snap] not present in [t] is restored
    standalone and must be self-contained. *)

val restore_image :
  ?synced:snap -> Rcoe_machine.Mem.t -> Rcoe_kernel.Layout.t -> snap -> unit
(** {!restore_memory} for a standalone snapshot, one no ring holds.
    With [synced], the complete snapshot memory was last synced to, a
    page that is clean in the write tracking and the same page in both
    snapshots already holds its words and is not written: the restore
    is O(pages) plus the words of the pages that differ. *)

val add_sums :
  ?mem:Rcoe_machine.Mem.t -> base:int -> Rcoe_checksum.Fletcher.t -> region -> unit
(** [add_sums ~base f region] feeds the words of a complete region, which
    sits at [base] in memory, to a Fletcher accumulator by its pages'
    block sums: the same state as {!Rcoe_checksum.Fletcher.add_words} of
    the words, in O(pages) once each page's sums are known. With [mem]
    it feeds the words [mem] holds there instead, [region] being the
    region's pages in the snapshot memory was last synced to: a page
    dirty in the write tracking is summed in place, a clean one
    contributes [region]'s page sums. Raises [Invalid_argument] on a
    delta. *)

val resolve_partition : t -> snap -> rid:int -> int array
(** The fully-resolved partition image of replica [rid] in [snap]
    (fresh array; the ring is not modified). Raises [Invalid_argument]
    if the chain cannot resolve it. *)
