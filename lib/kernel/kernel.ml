open Rcoe_machine

type thread_state =
  | T_ready
  | T_running
  | T_blocked_irq of int
  | T_blocked_join of int
  | T_blocked_input
  | T_exited

type thread = {
  tid : int;
  mutable tstate : thread_state;
  ctx_addr : int;
  entry : int;
}

type callbacks = {
  cb_info : int -> int -> int;
  cb_kernel_update : int -> int array -> unit;
}

type syscall_result =
  | Sr_local
  | Sr_ft of { num : int; args : int array }

type fault_disposition =
  | Fd_user_fault
  | Fd_user_exception
  | Fd_kernel_abort of int

type t = {
  krid : int;
  machine : Machine.t;
  kcore : Core.t;
  klayout : Layout.t;
  kpart : Layout.partition;
  kprogram : Rcoe_isa.Program.t;
  kcode : Rcoe_isa.Instr.t array;
      (* This kernel's private copy of the program code. Replicas must
         not share a mutable code image: a self-modifying patch in one
         replica reaching the others through aliasing would be exactly
         the silent common-mode corruption RCoE exists to detect. *)
  korig : Rcoe_isa.Instr.t array; (* pristine image, for rollback *)
  mutable kpatched : bool; (* kcode differs (or ever differed) from korig *)
  kbc : Blockc.t option; (* Some iff backend = Blocks *)
  pt : Page_table.table;
  kenv : Core.env;
  cb : callbacks;
  threads : thread option array;
  mutable nthreads : int;
  mutable current : int;
  run_q : int Queue.t;
  irq_latch : (int, int) Hashtbl.t; (* dpn -> pending deliveries *)
  kout : Buffer.t;
  mutable next_free_word : int; (* low frame allocator bump pointer *)
  mutable high_free_word : int; (* high (role-frame) allocator *)
  mutable last_fault : (int * Core.fault) option;
}

(* Tags for kernel state updates folded into the signature. *)
let upd_pte = 1
let upd_spawn = 2
let upd_switch = 3
let upd_exit = 4
let upd_code = 5

let rid t = t.krid
let core t = t.kcore
let env t = t.kenv
let block_cache t = t.kbc

(* One architectural cycle through whichever backend this kernel was
   created with: the interpreter, which is the oracle, or a one-cycle
   [Blockc.run], observably identical to it (enforced by
   test/test_exec_blocks.ml). Either way the core's own bus lane ticks
   first, in O(1): the tick is owed, and the core's next bus access
   applies it ([Bus.try_acquire]). [Blockc.run] ticks none for a halted
   core, which therefore takes the interpreter's path. The caller owns
   the trace clock. *)
let clock_unmoved (_ : int) = ()

let step t =
  match t.kbc with
  | Some bc when not t.kcore.Core.halted -> (
      match Blockc.run bc ~fuel:1 ~at:clock_unmoved with
      | None -> Core.Ran
      | Some ev -> Core.Event ev)
  | Some _ | None ->
      Bus.tick t.kenv.Core.bus;
      Core.step t.kcore t.kenv

(* Overwrite one instruction in this kernel's private code image and
   drop any compiled block for its page. The only legal way code
   changes at runtime — user stores cannot reach the Harvard-separate
   code array. *)
let patch_code t ~addr instr =
  if addr < 0 || addr >= Array.length t.kcode then
    invalid_arg (Printf.sprintf "Kernel.patch_code: bad address %d" addr);
  t.kcode.(addr) <- instr;
  t.kpatched <- true;
  match t.kbc with
  | Some bc -> Blockc.invalidate_addr bc addr
  | None -> ()
let layout t = t.klayout
let partition t = t.kpart
let program t = t.kprogram
let output t = t.kout

let create ?trace ?(backend = Blockc.Interp) ~machine ~rid:krid ~core_id
    ~layout:klayout ~program:kprogram ~callbacks () =
  let kpart = klayout.Layout.partitions.(krid) in
  let pt = { Page_table.base = kpart.Layout.pt_base; npages = Layout.va_pages } in
  let mem = machine.Machine.mem in
  Page_table.clear mem pt;
  let kcore = machine.Machine.cores.(core_id) in
  (* All replica-scope emissions (syscalls, preemptions, faults, the
     core's bus stalls) go through this sink. The replication engine
     passes a per-replica child of the machine trace so the replica can
     be stepped on its own domain; standalone kernels share the machine
     trace as before. *)
  let ktrace =
    match trace with Some tr -> tr | None -> machine.Machine.trace
  in
  let korig = kprogram.Rcoe_isa.Program.code in
  let kcode = Array.copy korig in
  let kenv =
    {
      Core.code = kcode;
      mem;
      pt;
      dev_read = Machine.dev_read machine;
      dev_write = Machine.dev_write machine;
      bus = Machine.bus_lane machine ~core_id;
      profile = machine.Machine.profile;
      trace = ktrace;
    }
  in
  {
    krid;
    machine;
    kcore;
    klayout;
    kpart;
    kprogram;
    kcode;
    korig;
    kpatched = false;
    kbc =
      (match backend with
      | Blockc.Interp -> None
      | Blockc.Blocks -> Some (Blockc.create kcore kenv));
    pt;
    kenv;
    cb = callbacks;
    threads = Array.make Layout.max_threads None;
    nthreads = 0;
    current = -1;
    run_q = Queue.create ();
    irq_latch = Hashtbl.create 4;
    kout = Buffer.create 128;
    next_free_word = kpart.Layout.user_base;
    high_free_word = kpart.Layout.p_base + kpart.Layout.p_words;
    last_fault = None;
  }

(* --- address space ---------------------------------------------------- *)

let mem t = t.machine.Machine.mem

let map_page ?(quiet = false) t ~vpn pte =
  Page_table.set (mem t) t.pt ~vpn pte;
  if not quiet then begin
    (* Checksum the update with a partition-relative frame number so that
       replicated mappings contribute identically in every replica. *)
    let base_ppn = t.kpart.Layout.p_base / Layout.page_size in
    let limit_ppn = (t.kpart.Layout.p_base + t.kpart.Layout.p_words) / Layout.page_size in
    let rel_ppn =
      if (not pte.Page_table.device) && pte.Page_table.ppn >= base_ppn
         && pte.Page_table.ppn < limit_ppn
      then pte.Page_table.ppn - base_ppn
      else pte.Page_table.ppn
    in
    let flags =
      (if pte.Page_table.valid then 1 else 0)
      lor (if pte.Page_table.writable then 2 else 0)
      lor (if pte.Page_table.dma then 4 else 0)
      lor if pte.Page_table.device then 8 else 0
    in
    t.cb.cb_kernel_update t.krid [| upd_pte; vpn; flags; rel_ppn |]
  end

let map_range t ~va ~words ~ppn0 ~writable ~dma ~device =
  if va land (Layout.page_size - 1) <> 0 then
    invalid_arg "Kernel.map_range: unaligned va";
  let npages = (words + Layout.page_size - 1) / Layout.page_size in
  let vpn0 = va / Layout.page_size in
  for i = 0 to npages - 1 do
    map_page t ~vpn:(vpn0 + i)
      { Page_table.valid = true; writable; dma; device; ppn = ppn0 + i }
  done

let alloc_frame t =
  if t.next_free_word + Layout.page_size > t.high_free_word then
    failwith "Kernel.alloc_frame: partition exhausted";
  let ppn = t.next_free_word / Layout.page_size in
  t.next_free_word <- t.next_free_word + Layout.page_size;
  ppn

let used_user_words t = t.next_free_word - t.kpart.Layout.user_base

let alloc_frame_high t =
  if t.high_free_word - Layout.page_size < t.next_free_word then
    failwith "Kernel.alloc_frame_high: partition exhausted";
  t.high_free_word <- t.high_free_word - Layout.page_size;
  t.high_free_word / Layout.page_size

let setup_address_space t =
  (* Program data + BSS. *)
  let dwords = t.kprogram.Rcoe_isa.Program.data_words in
  if dwords > 0 then begin
    let npages = (dwords + Layout.page_size - 1) / Layout.page_size in
    let ppn0 = alloc_frame t in
    for _ = 2 to npages do
      ignore (alloc_frame t)
    done;
    map_range t ~va:Layout.va_data ~words:dwords ~ppn0 ~writable:true ~dma:false
      ~device:false;
    let image = Rcoe_isa.Program.data_image t.kprogram in
    Mem.write_block (mem t) (ppn0 * Layout.page_size) image
  end;
  (* Scratch page. *)
  let sppn = alloc_frame t in
  map_range t ~va:Layout.va_scratch ~words:Layout.page_size ~ppn0:sppn
    ~writable:true ~dma:false ~device:false

let dma_pages_mapped t =
  let acc = ref [] in
  for vpn = Layout.va_pages - 1 downto 0 do
    let pte = Page_table.get (mem t) t.pt ~vpn in
    if pte.Page_table.valid && pte.Page_table.dma then acc := vpn :: !acc
  done;
  !acc

(* --- threads ----------------------------------------------------------- *)

let thread t tid =
  match t.threads.(tid) with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "Kernel.thread: no thread %d" tid)

let current_tid t = t.current

let ctx_addr_of t tid = t.kpart.Layout.ctx_base + (tid * Layout.ctx_words)

let spawn t ~entry ~arg =
  if t.nthreads >= Layout.max_threads then failwith "Kernel.spawn: too many threads";
  let tid = t.nthreads in
  t.nthreads <- t.nthreads + 1;
  (* Map the thread's stack (2 pages, on demand, per tid slot). *)
  let stack_top = Layout.stack_top ~tid in
  let stack_va = stack_top - Layout.stack_words_per_thread in
  let ppn0 = alloc_frame t in
  ignore (alloc_frame t);
  map_range t ~va:stack_va ~words:Layout.stack_words_per_thread ~ppn0
    ~writable:true ~dma:false ~device:false;
  let ctx_addr = ctx_addr_of t tid in
  Context.init (mem t) ~addr:ctx_addr ~entry ~sp:stack_top ~arg;
  t.threads.(tid) <- Some { tid; tstate = T_ready; ctx_addr; entry };
  Queue.add tid t.run_q;
  t.cb.cb_kernel_update t.krid [| upd_spawn; tid; entry |];
  tid

let save_current t =
  if t.current >= 0 then
    Context.save (mem t) ~addr:(ctx_addr_of t t.current) t.kcore

let dispatch t =
  match Queue.take_opt t.run_q with
  | None -> t.current <- -1
  | Some tid ->
      let th = thread t tid in
      th.tstate <- T_running;
      t.current <- tid;
      Context.restore (mem t) ~addr:th.ctx_addr t.kcore;
      Core.clear_exclusive t.kcore;
      t.cb.cb_kernel_update t.krid [| upd_switch; tid |]

let start t = dispatch t

let preempt ?after_save t =
  if t.current >= 0 then begin
    let tid = t.current in
    Rcoe_obs.Trace.preempt t.kenv.Core.trace ~rid:t.krid ~tid;
    save_current t;
    (match after_save with
    | Some f -> f ~tid ~ctx_addr:(ctx_addr_of t tid)
    | None -> ());
    let th = thread t tid in
    th.tstate <- T_ready;
    Queue.add tid t.run_q;
    t.current <- -1
  end;
  Core.clear_exclusive t.kcore;
  if not (Queue.is_empty t.run_q) then dispatch t

let block_current t state =
  if t.current < 0 then invalid_arg "Kernel.block_current: idle";
  save_current t;
  (thread t t.current).tstate <- state;
  t.current <- -1;
  dispatch t

let unblock t tid =
  let th = thread t tid in
  (match th.tstate with
  | T_exited | T_ready | T_running -> ()
  | T_blocked_irq _ | T_blocked_join _ | T_blocked_input ->
      th.tstate <- T_ready;
      Queue.add tid t.run_q);
  if t.current < 0 then dispatch t

let iter_threads t f =
  Array.iter (function Some th -> f th | None -> ()) t.threads

let post_irq_waiters t ~dpn =
  let woken = ref 0 in
  iter_threads t (fun th ->
      match th.tstate with
      | T_blocked_irq d when d = dpn ->
          incr woken;
          unblock t th.tid
      | _ -> ());
  !woken

let wake_irq_waiters t ~dpn =
  let woken = post_irq_waiters t ~dpn in
  if woken = 0 then begin
    (* Latch: the driver was not waiting yet; deliver on its next wait. *)
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.irq_latch dpn) in
    Hashtbl.replace t.irq_latch dpn (cur + 1)
  end;
  woken

let wake_input_waiters t =
  let woken = ref 0 in
  iter_threads t (fun th ->
      match th.tstate with
      | T_blocked_input ->
          incr woken;
          unblock t th.tid
      | _ -> ());
  !woken

let runnable t = t.current >= 0 || not (Queue.is_empty t.run_q)

let all_exited t =
  t.nthreads > 0
  && t.current < 0
  &&
  let live = ref false in
  iter_threads t (fun th -> if th.tstate <> T_exited then live := true);
  not !live

let live_thread_count t =
  let n = ref 0 in
  iter_threads t (fun th -> if th.tstate <> T_exited then incr n);
  !n

(* --- user memory ------------------------------------------------------- *)

exception User_mem_error of int

let translate_user t ~va ~write =
  match Page_table.translate (mem t) t.pt ~vaddr:va ~write with
  | Page_table.Phys p -> p
  | Page_table.Device _ | Page_table.No_mapping | Page_table.Not_writable ->
      raise (User_mem_error va)

let read_user t ~va = Mem.read (mem t) (translate_user t ~va ~write:false)

let write_user t ~va v = Mem.write (mem t) (translate_user t ~va ~write:true) v

let read_user_block t ~va ~len =
  Array.init len (fun i -> read_user t ~va:(va + i))

let write_user_block t ~va block =
  Array.iteri (fun i v -> write_user t ~va:(va + i) v) block

let translate_mmio t ~va =
  match Page_table.translate (mem t) t.pt ~vaddr:va ~write:false with
  | Page_table.Device (d, off) -> Some (d, off)
  | Page_table.Phys _ | Page_table.No_mapping | Page_table.Not_writable -> None

(* --- thread termination ------------------------------------------------ *)

let exit_thread t tid =
  let th = thread t tid in
  th.tstate <- T_exited;
  t.cb.cb_kernel_update t.krid [| upd_exit; tid |];
  (* Wake joiners. *)
  iter_threads t (fun w ->
      match w.tstate with
      | T_blocked_join j when j = tid -> unblock t w.tid
      | _ -> ());
  if t.current = tid then begin
    t.current <- -1;
    dispatch t
  end

let exit_current t = if t.current >= 0 then exit_thread t t.current

let last_fault t = t.last_fault

let kill_current t fault =
  if t.current >= 0 then begin
    t.last_fault <- Some (t.current, fault);
    exit_thread t t.current
  end

(* --- syscalls ----------------------------------------------------------- *)

let regs t = t.kcore.Core.regs
let arg t i = (regs t).(i)
let set_result t v = (regs t).(0) <- v

let handle_syscall t num =
  let cost = t.kenv.Core.profile.Arch.syscall_cost in
  Core.add_stall t.kcore cost;
  Core.clear_exclusive t.kcore;
  (let tr = t.kenv.Core.trace in
   if Rcoe_obs.Trace.enabled tr then
     Rcoe_obs.Trace.syscall tr ~rid:t.krid ~num ~name:(Syscall.name num) ~cost);
  if Syscall.is_ft num then begin
    (* Capture only the declared arguments: trailing registers hold
       caller-local values that legitimately differ between replicas
       (e.g. the primary-only device pointers of an LC driver). *)
    let nargs = Syscall.arg_count num in
    Sr_ft
      { num; args = Array.init 4 (fun i -> if i < nargs then arg t i else 0) }
  end
  else begin
    if num = Syscall.sys_exit then exit_thread t t.current
    else if num = Syscall.sys_yield then preempt t
    else if num = Syscall.sys_spawn then begin
      let tid = spawn t ~entry:(arg t 0) ~arg:(arg t 1) in
      set_result t tid
    end
    else if num = Syscall.sys_putchar then
      Buffer.add_char t.kout (Char.chr (arg t 0 land 0x7F))
    else if num = Syscall.sys_atomic then begin
      match
        let addr = arg t 0 and v = arg t 1 and op = arg t 2 and expect = arg t 3 in
        let old = read_user t ~va:addr in
        (match op with
        | 0 -> write_user t ~va:addr (old + v)
        | 1 -> write_user t ~va:addr v
        | 2 -> if old = expect then write_user t ~va:addr v
        | _ -> ());
        old
      with
      | old -> set_result t old
      | exception User_mem_error _ ->
          kill_current t (Core.Unmapped { vaddr = arg t 0; write = true })
    end
    else if num = Syscall.sys_get_info then
      set_result t (t.cb.cb_info t.krid (arg t 0))
    else if num = Syscall.sys_join then begin
      let target = arg t 0 in
      if target < 0 || target >= t.nthreads then set_result t (-1)
      else if (thread t target).tstate = T_exited then set_result t 0
      else begin
        set_result t 0;
        block_current t (T_blocked_join target)
      end
    end
    else if num = Syscall.sys_code_patch then begin
      let addr = arg t 0
      and kind = arg t 1
      and rd = arg t 2
      and imm = arg t 3 in
      let instr =
        if addr < 0 || addr >= Array.length t.kcode then None
        else
          match kind with
          | 0 -> Some Rcoe_isa.Instr.Nop
          | 1 when rd >= 0 && rd < Rcoe_isa.Reg.count ->
              Some
                (Rcoe_isa.Instr.Mov
                   (Rcoe_isa.Reg.of_index rd, Rcoe_isa.Instr.Imm imm))
          | 2 when rd >= 0 && rd < Rcoe_isa.Reg.count ->
              let r = Rcoe_isa.Reg.of_index rd in
              Some (Rcoe_isa.Instr.Alu (Rcoe_isa.Instr.Add, r, r, Rcoe_isa.Instr.Imm imm))
          | 3 when imm >= 0 && imm < Array.length t.kcode ->
              Some (Rcoe_isa.Instr.Jmp (Rcoe_isa.Instr.Abs imm))
          | _ -> None
      in
      match instr with
      | Some i ->
          patch_code t ~addr i;
          (* Fold the patch into the signature: replicas that patch
             different words (or one patches and one does not) must
             diverge detectably. *)
          t.cb.cb_kernel_update t.krid [| upd_code; addr; kind; rd; imm |];
          set_result t 0
      | None -> kill_current t (Core.Bad_ip t.kcore.Core.ip)
    end
    else if num = Syscall.sys_ticks then set_result t (t.cb.cb_info t.krid 5)
    else if num = Syscall.sys_wait_irq then begin
      let dpn = arg t 0 in
      let latched = Option.value ~default:0 (Hashtbl.find_opt t.irq_latch dpn) in
      if latched > 0 then begin
        Hashtbl.replace t.irq_latch dpn (latched - 1);
        set_result t 0
      end
      else begin
        set_result t 0;
        block_current t (T_blocked_irq dpn)
      end
    end
    else
      (* Unknown syscall: kill the thread (illegal request). *)
      kill_current t (Core.Bad_ip t.kcore.Core.ip);
    Sr_local
  end

(* --- faults -------------------------------------------------------------- *)

let fault_kind = function
  | Core.Unmapped _ -> "unmapped"
  | Core.Write_protect _ -> "write-protect"
  | Core.Division_by_zero -> "div-zero"
  | Core.Bad_ip _ -> "bad-ip"
  | Core.Phys_abort _ -> "phys-abort"

let handle_fault t fault =
  Core.add_stall t.kcore t.kenv.Core.profile.Arch.fault_cost;
  Rcoe_obs.Trace.fault t.kenv.Core.trace ~rid:t.krid
    ~kind:(fault_kind fault);
  let disposition =
    match fault with
    | Core.Unmapped _ | Core.Write_protect _ -> Fd_user_fault
    | Core.Division_by_zero | Core.Bad_ip _ -> Fd_user_exception
    | Core.Phys_abort a -> Fd_kernel_abort a
  in
  (match disposition with
  | Fd_user_fault | Fd_user_exception -> kill_current t fault
  | Fd_kernel_abort _ ->
      (* The engine decides: on x86 this is an (uncontrolled) kernel
         exception; with exception-handler barriers it halts the replica
         in a detectable way. Kill the thread locally either way. *)
      kill_current t fault);
  disposition

(* --- checkpointing -------------------------------------------------------- *)

(* A kernel snapshot captures everything [adopt_runtime_from] copies,
   plus what rollback additionally needs: the console-output length (so
   replayed output is not emitted twice), the last recorded fault, and
   the core's full architectural state including the exclusive monitor.
   Memory (contexts, page table, user frames) is *not* captured here —
   the engine snapshots the whole partition separately. *)

type core_snapshot = {
  cs_ip : int;
  cs_regs : int array;
  cs_fregs : float array;
  cs_stall : int;
  cs_hw_branches : int;
  cs_last_was_cntinc : bool;
  cs_excl_armed : bool;
  cs_excl_addr : int;
  cs_bus_wait : int;
  cs_halted : bool;
}

type snapshot = {
  sn_nthreads : int;
  sn_threads : thread option array;
  sn_current : int;
  sn_run_q : int list;
  sn_irq_latch : (int * int) list;
  sn_out_len : int;
  sn_next_free_word : int;
  sn_high_free_word : int;
  sn_last_fault : (int * Core.fault) option;
  sn_code : Rcoe_isa.Instr.t array option;
      (* Copy of the (patched) code image — [None] when the code is
         still pristine, which is the overwhelmingly common case and
         keeps snapshots O(dirty) rather than O(code). *)
  sn_core : core_snapshot;
}

let copy_thread th = { th with tstate = th.tstate }

let snapshot t =
  let c = t.kcore in
  {
    sn_nthreads = t.nthreads;
    sn_threads = Array.map (Option.map copy_thread) t.threads;
    sn_current = t.current;
    sn_run_q = List.rev (Queue.fold (fun acc tid -> tid :: acc) [] t.run_q);
    sn_irq_latch = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.irq_latch [];
    sn_out_len = Buffer.length t.kout;
    sn_next_free_word = t.next_free_word;
    sn_high_free_word = t.high_free_word;
    sn_last_fault = t.last_fault;
    sn_code = (if t.kpatched then Some (Array.copy t.kcode) else None);
    sn_core =
      {
        cs_ip = c.Core.ip;
        cs_regs = Array.copy c.Core.regs;
        cs_fregs = Array.copy c.Core.fregs;
        cs_stall = c.Core.stall;
        cs_hw_branches = c.Core.hw_branches;
        cs_last_was_cntinc = c.Core.last_was_cntinc;
        cs_excl_armed = c.Core.excl_armed;
        cs_excl_addr = c.Core.excl_addr;
        cs_bus_wait = c.Core.bus_wait;
        cs_halted = c.Core.halted;
      };
  }

let restore t s =
  t.nthreads <- s.sn_nthreads;
  Array.iteri
    (fun tid slot -> t.threads.(tid) <- Option.map copy_thread slot)
    s.sn_threads;
  t.current <- s.sn_current;
  Queue.clear t.run_q;
  List.iter (fun tid -> Queue.add tid t.run_q) s.sn_run_q;
  Hashtbl.reset t.irq_latch;
  List.iter (fun (k, v) -> Hashtbl.replace t.irq_latch k v) s.sn_irq_latch;
  (* Console output only ever grows; cut the replayed suffix. *)
  if Buffer.length t.kout > s.sn_out_len then Buffer.truncate t.kout s.sn_out_len;
  t.next_free_word <- s.sn_next_free_word;
  t.high_free_word <- s.sn_high_free_word;
  t.last_fault <- s.sn_last_fault;
  (* Rewind the code image across any patches between the snapshot and
     now; the block cache may hold blocks compiled from the newer code,
     so it is dropped wholesale whenever the image changes. *)
  (match s.sn_code with
  | Some code ->
      Array.blit code 0 t.kcode 0 (Array.length code);
      t.kpatched <- true;
      Option.iter Blockc.invalidate_all t.kbc
  | None ->
      if t.kpatched then begin
        Array.blit t.korig 0 t.kcode 0 (Array.length t.korig);
        t.kpatched <- false;
        Option.iter Blockc.invalidate_all t.kbc
      end);
  let c = t.kcore and cs = s.sn_core in
  Array.blit cs.cs_regs 0 c.Core.regs 0 (Array.length cs.cs_regs);
  Array.blit cs.cs_fregs 0 c.Core.fregs 0 (Array.length cs.cs_fregs);
  c.Core.ip <- cs.cs_ip;
  c.Core.stall <- cs.cs_stall;
  c.Core.hw_branches <- cs.cs_hw_branches;
  c.Core.last_was_cntinc <- cs.cs_last_was_cntinc;
  c.Core.excl_armed <- cs.cs_excl_armed;
  c.Core.excl_addr <- cs.cs_excl_addr;
  c.Core.bus_wait <- cs.cs_bus_wait;
  c.Core.halted <- cs.cs_halted;
  c.Core.bp <- None;
  c.Core.bp_suppress <- false

(* --- re-integration ------------------------------------------------------ *)

let adopt_runtime_from t ~src =
  let delta = t.kpart.Layout.p_base - src.kpart.Layout.p_base in
  t.nthreads <- src.nthreads;
  Array.iteri
    (fun tid slot ->
      t.threads.(tid) <-
        Option.map
          (fun th ->
            { th with ctx_addr = ctx_addr_of t tid })
          slot)
    src.threads;
  t.current <- src.current;
  Queue.clear t.run_q;
  Queue.iter (fun tid -> Queue.add tid t.run_q) src.run_q;
  Hashtbl.reset t.irq_latch;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.irq_latch k v) src.irq_latch;
  t.next_free_word <- src.next_free_word + delta;
  t.high_free_word <- src.high_free_word + delta;
  t.last_fault <- None;
  (* Adopt the source's code image if either side has ever diverged from
     the pristine program; the reintegrated replica must execute exactly
     the code the survivors execute. *)
  if src.kpatched || t.kpatched then begin
    Array.blit src.kcode 0 t.kcode 0 (Array.length src.kcode);
    t.kpatched <- src.kpatched;
    Option.iter Blockc.invalidate_all t.kbc
  end;
  (* Adopt the source core's architectural state. *)
  let sc = src.kcore and dc = t.kcore in
  Array.blit sc.Core.regs 0 dc.Core.regs 0 (Array.length sc.Core.regs);
  Array.blit sc.Core.fregs 0 dc.Core.fregs 0 (Array.length sc.Core.fregs);
  dc.Core.ip <- sc.Core.ip;
  dc.Core.hw_branches <- sc.Core.hw_branches;
  dc.Core.last_was_cntinc <- sc.Core.last_was_cntinc;
  dc.Core.stall <- sc.Core.stall;
  dc.Core.bp <- None;
  dc.Core.bp_suppress <- false;
  dc.Core.halted <- false;
  Core.clear_exclusive dc
