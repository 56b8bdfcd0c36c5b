open Rcoe_util

type fault =
  | Unmapped of { vaddr : int; write : bool }
  | Write_protect of int
  | Division_by_zero
  | Bad_ip of int
  | Phys_abort of int

type event =
  | Ev_halt
  | Ev_syscall of int
  | Ev_fault of fault
  | Ev_breakpoint

type t = {
  id : int;
  mutable ip : int;
  regs : int array;
  fregs : float array;
  mutable stall : int;
  mutable cycles : int;
  mutable instret : int;
  mutable hw_branches : int;
  mutable last_was_cntinc : bool;
  mutable excl_armed : bool;
  mutable excl_addr : int;
  mutable bp : int option;
  mutable bp_suppress : bool;
  mutable halted : bool;
  mutable bus_wait : int;
  jitter : Rng.t;
}

type env = {
  code : Rcoe_isa.Instr.t array;
  mem : Mem.t;
  pt : Page_table.table;
  dev_read : int -> int -> int;
  dev_write : int -> int -> int -> unit;
  bus : Bus.t;
  profile : Arch.profile;
  trace : Rcoe_obs.Trace.t;
}

type step_result = Ran | Event of event

let create ~id ~jitter_seed =
  {
    id;
    ip = 0;
    regs = Array.make Rcoe_isa.Reg.count 0;
    fregs = Array.make Rcoe_isa.Reg.fcount 0.0;
    stall = 0;
    cycles = 0;
    instret = 0;
    hw_branches = 0;
    last_was_cntinc = false;
    excl_armed = false;
    excl_addr = 0;
    bp = None;
    bp_suppress = false;
    halted = false;
    bus_wait = 0;
    jitter = Rng.create jitter_seed;
  }

let branch_count t (p : Arch.profile) =
  match p.count_mode with
  | Arch.Hardware -> t.hw_branches
  | Arch.Compiler_assisted -> t.regs.(Rcoe_isa.Reg.index Rcoe_isa.Reg.branch_counter)

let clear_exclusive t = t.excl_armed <- false

let add_stall t n = t.stall <- t.stall + n

let rep_in_progress t env =
  t.ip >= 0
  && t.ip < Array.length env.code
  && (match env.code.(t.ip) with Rcoe_isa.Instr.Rep_movs -> true | _ -> false)

(* --- memory access helpers ------------------------------------------- *)

exception Take_fault of fault
exception Bus_busy

let acquire_bus env n = if not (Bus.try_acquire env.bus n) then raise Bus_busy

let ram_read t env ~bus p =
  acquire_bus env bus;
  t.stall <- t.stall + env.profile.mem_extra_cycles;
  try Mem.read env.mem p with Mem.Abort a -> raise (Take_fault (Phys_abort a))

let ram_write env p v =
  try Mem.write env.mem p v with Mem.Abort a -> raise (Take_fault (Phys_abort a))

let ram_store t env p v =
  acquire_bus env 1;
  t.stall <- t.stall + env.profile.mem_extra_cycles;
  ram_write env p v

(* Every data access that [Page_table.ram_addr] does not resolve to
   RAM: a device page, a fault, or a garbage frame whose address
   overflows (which [ram] then aborts on). Rare, so the resolution and
   the partial applications the callers pass may allocate. *)
let resolve env ~vaddr ~write ~ram ~dev =
  match Page_table.translate env.mem env.pt ~vaddr ~write with
  | Page_table.Phys p -> ram p
  | Page_table.Device (d, off) -> dev d off
  | Page_table.No_mapping -> raise (Take_fault (Unmapped { vaddr; write }))
  | Page_table.Not_writable -> raise (Take_fault (Write_protect vaddr))

let read t env ~bus vaddr =
  let p = Page_table.ram_addr env.mem env.pt ~vaddr ~write:false in
  if p >= 0 then ram_read t env ~bus p
  else resolve env ~vaddr ~write:false ~ram:(ram_read t env ~bus) ~dev:env.dev_read

let load t env vaddr = read t env ~bus:1 vaddr

let store t env vaddr v =
  let p = Page_table.ram_addr env.mem env.pt ~vaddr ~write:true in
  if p >= 0 then ram_store t env p v
  else
    resolve env ~vaddr ~write:true
      ~ram:(fun p -> ram_store t env p v)
      ~dev:(fun d off -> env.dev_write d off v)

(* --- ALU -------------------------------------------------------------- *)

let shift_amount n = n land 1023

let alu op a b =
  let open Rcoe_isa.Instr in
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Take_fault Division_by_zero) else a / b
  | Rem -> if b = 0 then raise (Take_fault Division_by_zero) else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl ->
      let s = shift_amount b in
      if s >= 63 then 0 else a lsl s
  | Shr ->
      let s = shift_amount b in
      if s >= 63 then 0 else a lsr s
  | Asr ->
      let s = shift_amount b in
      a asr min s 62

let falu op a b =
  let open Rcoe_isa.Instr in
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b

let funop op a =
  let open Rcoe_isa.Instr in
  match op with
  | Fmov -> a
  | Fneg -> -.a
  | Fabs -> Float.abs a
  | Fsqrt -> sqrt a

(* --- stepping --------------------------------------------------------- *)

let reg = Rcoe_isa.Reg.index
let sp_idx = Rcoe_isa.Reg.index Rcoe_isa.Reg.sp
let lr_idx = Rcoe_isa.Reg.index Rcoe_isa.Reg.lr
let cnt_idx = Rcoe_isa.Reg.index Rcoe_isa.Reg.branch_counter

let operand t (o : Rcoe_isa.Instr.operand) =
  match o with Reg r -> t.regs.(reg r) | Imm i -> i

let target_addr instr (tg : Rcoe_isa.Instr.target) =
  match tg with
  | Abs a -> a
  | Lbl l ->
      invalid_arg
        (Printf.sprintf "Core: unresolved label %s in %s" l
           (Rcoe_isa.Instr.to_string instr))

let count_hw_branch t env =
  match env.profile.count_mode with
  | Arch.Hardware -> t.hw_branches <- t.hw_branches + 1
  | Arch.Compiler_assisted -> ()

(* Top-level, so that [exec] closes over nothing per instruction. *)
let retire t =
  t.ip <- t.ip + 1;
  t.instret <- t.instret + 1;
  t.last_was_cntinc <- false

(* Execute exactly one instruction (or one word of a rep-string).
   Raises Take_fault/Bus_busy. Returns an event for traps. *)
let exec t env instr : event option =
  let open Rcoe_isa.Instr in
  let fregs = t.fregs and regs = t.regs in
  let fidx = Rcoe_isa.Reg.findex in
  match instr with
  | Nop ->
      retire t;
      None
  | Halt -> Some Ev_halt
  | Mov (rd, o) ->
      regs.(reg rd) <- operand t o;
      retire t;
      None
  | La (rd, l) -> invalid_arg ("Core: unresolved data label " ^ l ^ " for " ^ Rcoe_isa.Reg.to_string rd)
  | Alu (op, rd, rs, o) ->
      regs.(reg rd) <- alu op regs.(reg rs) (operand t o);
      retire t;
      None
  | Not (rd, rs) ->
      regs.(reg rd) <- lnot regs.(reg rs);
      retire t;
      None
  | Ld (rd, rs, off) ->
      regs.(reg rd) <- load t env (regs.(reg rs) + off);
      retire t;
      None
  | St (rbase, rs, off) ->
      store t env (regs.(reg rbase) + off) regs.(reg rs);
      retire t;
      None
  | Push r ->
      let nsp = regs.(sp_idx) - 1 in
      store t env nsp regs.(reg r);
      regs.(sp_idx) <- nsp;
      retire t;
      None
  | Pop r ->
      let v = load t env regs.(sp_idx) in
      regs.(reg r) <- v;
      regs.(sp_idx) <- regs.(sp_idx) + 1;
      retire t;
      None
  | B (c, r, o, tg) ->
      count_hw_branch t env;
      if eval_cond c regs.(reg r) (operand t o) then begin
        t.ip <- target_addr instr tg;
        t.instret <- t.instret + 1;
        t.last_was_cntinc <- false
      end
      else retire t;
      None
  | Jmp tg ->
      count_hw_branch t env;
      t.ip <- target_addr instr tg;
      t.instret <- t.instret + 1;
      t.last_was_cntinc <- false;
      None
  | Jal tg ->
      count_hw_branch t env;
      regs.(lr_idx) <- t.ip + 1;
      t.ip <- target_addr instr tg;
      t.instret <- t.instret + 1;
      t.last_was_cntinc <- false;
      None
  | Jr r ->
      count_hw_branch t env;
      t.ip <- regs.(reg r);
      t.instret <- t.instret + 1;
      t.last_was_cntinc <- false;
      None
  | Ret ->
      count_hw_branch t env;
      t.ip <- regs.(lr_idx);
      t.instret <- t.instret + 1;
      t.last_was_cntinc <- false;
      None
  | Syscall n ->
      retire t;
      Some (Ev_syscall n)
  | Rep_movs ->
      (* One word per cycle; registers stay architecturally consistent so
         the copy can be preempted and resumed. *)
      if regs.(reg R2) <= 0 then begin
        retire t;
        None
      end
      else begin
        let src = regs.(reg R1) and dst = regs.(reg R0) in
        let v = read t env ~bus:2 src in
        (* The copy's bus token and memory stall were charged with its
           read. *)
        let p = Page_table.ram_addr env.mem env.pt ~vaddr:dst ~write:true in
        if p >= 0 then ram_write env p v
        else
          resolve env ~vaddr:dst ~write:true ~ram:(fun p -> ram_write env p v)
            ~dev:(fun d off -> env.dev_write d off v);
        regs.(reg R0) <- dst + 1;
        regs.(reg R1) <- src + 1;
        regs.(reg R2) <- regs.(reg R2) - 1;
        if regs.(reg R2) = 0 then retire t;
        None
      end
  | Ldex (rd, rs) ->
      let a = regs.(reg rs) in
      regs.(reg rd) <- load t env a;
      t.excl_armed <- true;
      t.excl_addr <- a;
      retire t;
      None
  | Stex (rres, rval, raddr) ->
      let a = regs.(reg raddr) in
      if t.excl_armed && t.excl_addr = a then begin
        store t env a regs.(reg rval);
        regs.(reg rres) <- 0
      end
      else regs.(reg rres) <- 1;
      t.excl_armed <- false;
      retire t;
      None
  | Atomic_add (rd, raddr, o) ->
      let a = regs.(reg raddr) in
      let old = load t env a in
      store t env a (old + operand t o);
      regs.(reg rd) <- old;
      retire t;
      None
  | Cas (rd, raddr, rexp, rnew) ->
      let a = regs.(reg raddr) in
      let old = load t env a in
      if old = regs.(reg rexp) then store t env a regs.(reg rnew);
      regs.(reg rd) <- old;
      retire t;
      None
  | Cntinc ->
      regs.(cnt_idx) <- regs.(cnt_idx) + 1;
      t.ip <- t.ip + 1;
      t.instret <- t.instret + 1;
      t.last_was_cntinc <- true;
      None
  | Falu (op, fd, fa, fb) ->
      fregs.(fidx fd) <- falu op fregs.(fidx fa) fregs.(fidx fb);
      retire t;
      None
  | Funop (op, fd, fs) ->
      fregs.(fidx fd) <- funop op fregs.(fidx fs);
      retire t;
      None
  | Fldi (fd, x) ->
      fregs.(fidx fd) <- x;
      retire t;
      None
  | Fld (fd, rs, off) ->
      Rcoe_isa.Program.set_float_word fregs (fidx fd)
        (load t env (regs.(reg rs) + off));
      retire t;
      None
  | Fst (fs, rbase, off) ->
      store t env
        (regs.(reg rbase) + off)
        (Rcoe_isa.Program.get_float_word fregs (fidx fs));
      retire t;
      None
  | Fb (c, fa, fb, tg) ->
      count_hw_branch t env;
      if eval_fcond c fregs.(fidx fa) fregs.(fidx fb) then begin
        t.ip <- target_addr instr tg;
        t.instret <- t.instret + 1;
        t.last_was_cntinc <- false
      end
      else retire t;
      None
  | Itof (fd, rs) ->
      fregs.(fidx fd) <- float_of_int regs.(reg rs);
      retire t;
      None
  | Ftoi (rd, fs) ->
      regs.(reg rd) <- int_of_float fregs.(fidx fs);
      retire t;
      None

(* Flush a completed run of bus-contention stalls as one trace span
   ending at the current cycle. *)
let flush_bus_wait t env =
  if t.bus_wait > 0 then begin
    Rcoe_obs.Trace.bus_stall env.trace ~rid:t.id ~cycles:t.bus_wait;
    t.bus_wait <- 0
  end

let exec_step t env =
  match exec t env env.code.(t.ip) with
  | exception Take_fault f ->
      t.bus_wait <- 0;
      Event (Ev_fault f)
  | exception Bus_busy ->
      t.bus_wait <- t.bus_wait + 1;
      Ran
  | Some ev ->
      flush_bus_wait t env;
      Event ev
  | None ->
      flush_bus_wait t env;
      let p = env.profile.jitter_p in
      if p > 0.0 && Rng.below t.jitter (Rng.threshold p) then
        t.stall <- t.stall + env.profile.jitter_cycles;
      Ran

let step t env =
  if t.halted then Event Ev_halt
  else begin
    t.cycles <- t.cycles + 1;
    if t.stall > 0 then begin
      t.stall <- t.stall - 1;
      Ran
    end
    else begin
      (* Re-arm the resume flag once execution has left the breakpointed
         address. *)
      (match t.bp with
      | Some bp when t.bp_suppress && t.ip <> bp -> t.bp_suppress <- false
      | _ -> ());
      match t.bp with
      | Some bp when bp = t.ip && not t.bp_suppress ->
          Rcoe_obs.Trace.bp_fire env.trace ~rid:t.id;
          Event Ev_breakpoint
      | _ ->
          if t.ip < 0 || t.ip >= Array.length env.code then
            Event (Ev_fault (Bad_ip t.ip))
          else exec_step t env
    end
  end
