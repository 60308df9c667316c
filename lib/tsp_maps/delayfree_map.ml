module Heap = Pheap.Heap
module Kind = Pheap.Kind
module Pmem = Nvm.Pmem

(* Fixed-capacity open-addressed hash table whose mutations go through a
   per-slot recoverable CAS: the intended CAS (old, new, sequence stamp)
   is announced and persisted before the CAS executes, and acknowledged
   (result stamp) after, so a crash anywhere inside the window leaves
   enough durable evidence for recovery to finish or abort the operation
   exactly once.  No thread ever helps another complete a data CAS — a
   crashed operation is re-executed by recovery, not by peers — which is
   the "delay-free" discipline of Attiya et al. (PAPERS.md). *)

let slot_words = 8
let header_words = 2
let empty_key = min_int
let absent = Int64.min_int
let default_op_cycles = 18

(* Slot word offsets. *)
let k_key = 0
let k_value = 1
let k_stamp = 2 (* announce sequence stamp; > result while in flight *)
let k_old = 3 (* announced expected value *)
let k_new = 4 (* announced desired value *)
let k_seal = 5 (* stamp again, written after old/new: announce is complete *)
let k_result = 6 (* last acknowledged stamp *)

let table_kind =
  Kind.register ~kind:18 ~name:"delayfree_table"
    ~scan:(fun ~load:_ ~addr:_ ~words:_ ~emit:_ -> ())
    ()

type t = {
  heap : Heap.t;
  table : Heap.addr;
  capacity : int;
  mask : int;
  op_cycles : int;
}

let root t = t.table
let capacity t = t.capacity
let pmem t = Heap.pmem t.heap

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let capacity_for ~n_buckets =
  (* Generous sizing: the workloads key up to ~4 keys per bucket into a
     chained map, so 8 slots per bucket keeps this fixed-capacity table
     under 50% load. *)
  let rec up n = if n >= 8 * n_buckets then n else up (2 * n) in
  up 64

let derived_capacity heap table =
  (Heap.words_of heap table - header_words) / slot_words

let slot_base i = header_words + (i * slot_words)

(* Deterministic 63-bit mix (splitmix-style). *)
let mix k =
  let h = k * 0x9E3779B97F4A7C in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  h lxor (h lsr 32)

let fence t = Pmem.fence (pmem t)
let flush_word t w = Pmem.flush (pmem t) (Heap.field_addr t.heap t.table w)

(* Flush the line(s) spanned by words [w1..w2] of the table. *)
let flush_range t w1 w2 =
  let p = pmem t in
  let line = (Pmem.config p).Nvm.Config.line_size in
  let a1 = Heap.field_addr t.heap t.table w1 in
  let a2 = Heap.field_addr t.heap t.table w2 in
  Pmem.flush p a1;
  if a2 / line <> a1 / line then Pmem.flush p a2

let init_slots heap table capacity =
  for i = 0 to capacity - 1 do
    let base = slot_base i in
    Heap.store_field_int heap table (base + k_key) empty_key;
    Heap.store_field heap table (base + k_value) absent;
    Heap.store_field_int heap table (base + k_stamp) 0;
    Heap.store_field heap table (base + k_old) 0L;
    Heap.store_field heap table (base + k_new) 0L;
    Heap.store_field_int heap table (base + k_seal) 0;
    Heap.store_field_int heap table (base + k_result) 0;
    Heap.store_field_int heap table (base + k_stamp + 5) 0 (* pad *)
  done

let create heap ?(op_cycles = default_op_cycles) ~capacity () =
  if not (is_power_of_two capacity) || capacity < 8 then
    invalid_arg "Delayfree_map.create: capacity must be a power of two >= 8";
  let table =
    Heap.alloc heap ~kind:table_kind
      ~words:(header_words + (capacity * slot_words))
  in
  Heap.store_field_int heap table 0 capacity;
  Heap.store_field_int heap table 1 0;
  init_slots heap table capacity;
  Heap.set_root heap table;
  { heap; table; capacity; mask = capacity - 1; op_cycles }

let attach heap ?(op_cycles = default_op_cycles) table =
  if not (Heap.is_object_start heap table)
     || Heap.kind_of heap table <> table_kind
  then invalid_arg "Delayfree_map.attach: root is not a delay-free table";
  let capacity = derived_capacity heap table in
  if Heap.load_field_int heap table 0 <> capacity then
    invalid_arg "Delayfree_map.attach: capacity header disagrees with size";
  { heap; table; capacity; mask = capacity - 1; op_cycles }

(* Linear probing.  [claim:true] claims the first empty slot for [key]
   (write-once key CAS; the slot's value is ABSENT from initialisation,
   so a crash between claim and first store leaves the key semantically
   absent).  Returns the slot base word, or -1 when probing without
   claiming finds no slot. *)
let find_slot t key ~claim =
  let rec probe i remaining =
    if remaining = 0 then
      if claim then failwith "Delayfree_map: table full" else -1
    else
      let base = slot_base (i land t.mask) in
      let k = Heap.load_field_int t.heap t.table (base + k_key) in
      if k = key then base
      else if k = empty_key then
        if not claim then -1
        else if
          Heap.cas_field_int t.heap t.table (base + k_key) ~expected:empty_key
            ~desired:key
        then begin
          flush_word t (base + k_key);
          base
        end
        else probe i remaining (* lost the claim race: re-read this slot *)
      else probe (i + 1) (remaining - 1)
  in
  probe (mix key) t.capacity

(* Recoverable CAS on a slot's value word.  [f old] returns [Some desired]
   or [None] to abandon without announcing.  Returns the old value the
   successful CAS observed, or [None] if [f] abandoned. *)
let rec mutate t base ~f =
  let r = Heap.load_field_int t.heap t.table (base + k_result) in
  let a = Heap.load_field_int t.heap t.table (base + k_stamp) in
  if a <> r then
    (* Another thread is mid-protocol on this slot.  Delay-free: do not
       help — wait for it; the loads above keep the scheduler moving, so
       the owner always progresses.  (A crashed owner is finished by
       recovery, never by us.) *)
    mutate t base ~f
  else
    let old = Heap.load_field t.heap t.table (base + k_value) in
    match f old with
    | None -> None
    | Some desired ->
        if
          not
            (Heap.cas_field_int t.heap t.table (base + k_stamp) ~expected:a
               ~desired:(a + 1))
        then mutate t base ~f (* lost the announce race *)
        else begin
          (* Own the record: persist the full intent before the CAS... *)
          Heap.store_field t.heap t.table (base + k_old) old;
          Heap.store_field t.heap t.table (base + k_new) desired;
          Heap.store_field_int t.heap t.table (base + k_seal) (a + 1);
          flush_range t (base + k_stamp) (base + k_seal);
          fence t;
          (* ...execute it... *)
          let landed =
            Heap.cas_field t.heap t.table (base + k_value) ~expected:old
              ~desired
          in
          (* ...and acknowledge, landed or not. *)
          Heap.store_field_int t.heap t.table (base + k_result) (a + 1);
          flush_word t (base + k_result);
          fence t;
          if landed then Some old else mutate t base ~f
        end

let set t ~tid:_ ~key ~value =
  Pmem.charge (pmem t) t.op_cycles;
  let base = find_slot t key ~claim:true in
  (* A single word store is atomic; persist it before returning. *)
  Heap.store_field t.heap t.table (base + k_value) value;
  flush_word t (base + k_value);
  fence t

let get t ~tid:_ ~key =
  Pmem.charge (pmem t) t.op_cycles;
  let base = find_slot t key ~claim:false in
  if base < 0 then None
  else
    let v = Heap.load_field t.heap t.table (base + k_value) in
    if v = absent then None else Some v

let incr t ~tid:_ ~key ~by =
  Pmem.charge (pmem t) t.op_cycles;
  let base = find_slot t key ~claim:true in
  ignore
    (mutate t base ~f:(fun old ->
         Some (if old = absent then by else Int64.add old by)))

let remove t ~tid:_ ~key =
  Pmem.charge (pmem t) t.op_cycles;
  let base = find_slot t key ~claim:false in
  if base < 0 then false
  else
    match
      mutate t base ~f:(fun old -> if old = absent then None else Some absent)
    with
    | Some _ -> true
    | None -> false

let ops t =
  {
    Map_intf.name = "delayfree-map";
    set = set t;
    get = get t;
    incr = incr t;
    remove = remove t;
  }

let set_plain t ~key ~value = set t ~tid:0 ~key ~value

(* {2 Recovery} *)

type repair = {
  scanned : int;
  reexecuted : int; (* announced CAS re-executed exactly once *)
  acked : int; (* CAS had landed; only the acknowledgement was missing *)
  aborted : int; (* announce incomplete or CAS had failed: op abandoned *)
}

let repair heap table =
  if not (Heap.is_object_start heap table)
     || Heap.kind_of heap table <> table_kind
  then invalid_arg "Delayfree_map.repair: root is not a delay-free table";
  let capacity = derived_capacity heap table in
  let reexecuted = ref 0 and acked = ref 0 and aborted = ref 0 in
  let bump r = r := !r + 1 in
  for i = 0 to capacity - 1 do
    let base = slot_base i in
    let a = Heap.load_field_int heap table (base + k_stamp) in
    let r = Heap.load_field_int heap table (base + k_result) in
    if a <> r then begin
      let seal = Heap.load_field_int heap table (base + k_seal) in
      if seal <> a then begin
        (* Crash before the announce was sealed: the op's intent never
           persisted, so it cannot have executed — abort it. *)
        Heap.store_field_int heap table (base + k_result) a;
        bump aborted
      end
      else begin
        let v = Heap.load_field heap table (base + k_value) in
        let annou_old = Heap.load_field heap table (base + k_old) in
        let annou_new = Heap.load_field heap table (base + k_new) in
        if v = annou_new then begin
          (* The CAS landed; only the acknowledgement is missing. *)
          Heap.store_field_int heap table (base + k_result) a;
          bump acked
        end
        else if v = annou_old then begin
          (* Announced but not executed: re-execute exactly once.  The
             crashed operation was pending, so applying its announced
             effect is a legal linearisation. *)
          Heap.store_field heap table (base + k_value) annou_new;
          Heap.store_field_int heap table (base + k_result) a;
          bump reexecuted
        end
        else begin
          (* The value matches neither side (a racing plain store won,
             or the image is adversarial): the CAS, had it run, would
             have failed — abort. *)
          Heap.store_field_int heap table (base + k_result) a;
          bump aborted
        end
      end
    end
  done;
  {
    scanned = capacity;
    reexecuted = !reexecuted;
    acked = !acked;
    aborted = !aborted;
  }

(* {2 Plain access} *)

let fold_plain heap ~root f acc =
  if not (Heap.is_object_start heap root) then
    raise (Heap.Corrupt "delay-free table root is not an object");
  let capacity = derived_capacity heap root in
  let acc = ref acc in
  for i = 0 to capacity - 1 do
    let base = slot_base i in
    let k = Heap.load_field_int heap root (base + k_key) in
    if k <> empty_key then begin
      let v = Heap.load_field heap root (base + k_value) in
      if v <> absent then acc := f k v !acc
    end
  done;
  !acc

let size_plain heap ~root = fold_plain heap ~root (fun _ _ n -> n + 1) 0

let check_plain heap ~root =
  try
    let seen = Hashtbl.create 64 in
    fold_plain heap ~root
      (fun key _ () ->
        if Hashtbl.mem seen key then
          Fmt.failwith "duplicate key %d in delay-free table" key
        else Hashtbl.add seen key ())
      ();
    Ok ()
  with
  | Failure msg -> Error msg
  | Heap.Corrupt msg -> Error msg
