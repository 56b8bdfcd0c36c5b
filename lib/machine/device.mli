(** Memory-mapped devices.

    A device occupies one or more device pages; user code reaches it
    through page-table entries with the device bit set (only the primary
    replica's driver is mapped to real devices — other replicas see
    aliased RAM, per the paper's sphere-of-replication boundary). *)

type t = {
  dev_name : string;
  read_reg : int -> int;
      (** [read_reg off]: MMIO read of word [off] within the device's
          page(s). Reads may have side effects (e.g. popping a FIFO). *)
  write_reg : int -> int -> unit;  (** [write_reg off v]. *)
  dev_tick : now:int -> unit;  (** Advance device time by one cycle. *)
  irq_pending : unit -> bool;
  irq_ack : unit -> unit;
}
