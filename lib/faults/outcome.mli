(** Classification of fault-injection trial outcomes into the paper's
    taxonomy (Tables VII, VIII and IX).

    "Controlled" errors are those the replication machinery reports
    before corrupt state escapes (signature mismatches, barrier
    timeouts, masked downgrades, and — with exception-handler barriers —
    kernel aborts). "Uncontrolled" errors reach the outside world:
    client-visible corruption or errors, crashes of the unreplicated
    base system, and kernel exceptions on configurations without
    exception barriers. *)

type t =
  | No_error
  | Ycsb_corruption  (** Client CRC mismatch on returned data. *)
  | Ycsb_error  (** Client-visible failure (no response / bad reply). *)
  | User_mem_fault
  | User_other_fault
  | Kernel_exception
  | Barrier_timeout
  | Signature_mismatch
  | Masked  (** TMR downgrade; service continued. *)
  | Recovered
      (** Checkpoint rollback re-execution; the run finished with
          correct output after at least one detection was recovered
          instead of halting. *)
  | Ingress_dropped
      (** Ingress-checksum verification dropped at least one corrupted
          DMA frame and the client's retransmission re-delivered it; the
          run finished clean. The drop-and-redeliver analogue of
          [Recovered] for corruption outside the sphere of
          replication — rollback cannot rewind a DMA buffer that no
          checkpoint covers. *)
  | System_reboot  (** Overclocking: catastrophic multi-component burst. *)

val to_string : t -> string

val controlled : t -> bool
(** [No_error], [Masked], [Recovered] and [Ingress_dropped] count as
    controlled. *)

val classify :
  sys:Rcoe_core.System.t ->
  client_corrupt:bool ->
  client_error:bool ->
  t
(** Precedence mirrors the paper's accounting: detection by the
    replication machinery (mismatch / timeout / masking) wins over
    client-observed effects; on the base system the client and fault
    observations are all there is. *)

type tally

val tally_create : unit -> tally
val tally_add : tally -> t -> unit
val tally_get : tally -> t -> int
val tally_total : tally -> int
val tally_controlled : tally -> int
val tally_uncontrolled : tally -> int
