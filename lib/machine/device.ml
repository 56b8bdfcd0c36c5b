type t = {
  dev_name : string;
  read_reg : int -> int;
  write_reg : int -> int -> unit;
  dev_tick : now:int -> unit;
  irq_pending : unit -> bool;
  irq_ack : unit -> unit;
}
