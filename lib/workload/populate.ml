module Rng = Sched.Sim_rng

let keys ~objects ~seed =
  let a = Array.init objects Key_space.h_key in
  (* Fisher-Yates with a seed-derived stream: the insertion order is
     deterministic but uncorrelated with key order, so chains, towers
     and tree splits exercise their general shapes rather than the
     append-only special case. *)
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  for i = objects - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Per-object footprint estimates (header word included, rounded up with
   slack): hash node = header + key + next + value words; btree ~120 B
   per key amortised over order-7 nodes at worst-case fill; skip node =
   header + 3 fixed words + a geometric tower. *)
let bytes_per_object (spec : Machine.config) =
  match spec.Machine.variant with
  | Machine.Mutex_map _ -> (4 + Machine.value_words spec) * 8
  | Machine.Mutex_btree _ -> 120
  | Machine.Nonblocking_map | Machine.Nvtraverse_map -> 96
  | Machine.Delayfree_map ->
      (* Objects live in the preallocated fixed-capacity table, whose
         footprint is counted by [table_bytes] below. *)
      0

let buckets_for (spec : Machine.config) ~objects =
  match spec.Machine.variant with
  | Machine.Mutex_map _ ->
      (* Keep chains O(1) so population stays linear in [objects]. *)
      max spec.Machine.n_buckets objects
  | Machine.Delayfree_map ->
      (* The fixed table derives its capacity (8 slots per bucket) from
         [n_buckets]: scale it with the population so the load factor
         stays bounded. *)
      max spec.Machine.n_buckets objects
  | _ -> spec.Machine.n_buckets

(* Bucket-array (chained map) or whole-table (delay-free) footprint. *)
let table_bytes (spec : Machine.config) ~n_buckets =
  match spec.Machine.variant with
  | Machine.Delayfree_map ->
      Tsp_maps.Delayfree_map.capacity_for ~n_buckets * 8 * 8
  | _ -> n_buckets * 8

let sized_spec (spec : Machine.config) ~objects =
  if objects < 0 then invalid_arg "Populate.sized_spec: negative count";
  let n_buckets = buckets_for spec ~objects in
  let needed =
    (2 * 1024 * 1024)
    + (objects * bytes_per_object spec)
    + table_bytes spec ~n_buckets
    + (spec.Machine.log_mib * 1024 * 1024)
  in
  let region =
    max spec.Machine.platform.Nvm.Config.region_size
      ((needed + (1024 * 1024) - 1) / (1024 * 1024) * 1024 * 1024)
  in
  {
    spec with
    Machine.platform = Nvm.Config.with_region_size spec.Machine.platform region;
    n_buckets;
  }

let insert_all (m : Machine.t) ~objects ~seed =
  Array.iter
    (fun k -> m.Machine.map.Machine.set_plain ~key:k ~value:(Int64.of_int k))
    (keys ~objects ~seed)

let fill (m : Machine.t) ~objects ~seed =
  insert_all m ~objects ~seed;
  Nvm.Pmem.persist_all m.Machine.pmem

(* The key loop writes straight into both images; [persist_all] then
   flushes, costed, what [Machine.create] left dirty.  The durable image
   is [fill]'s, while the cache, stats and clock skip the populate. *)
let build spec ~objects ~seed =
  let m = Machine.create (sized_spec spec ~objects) in
  Nvm.Pmem.cost_free m.Machine.pmem (fun () -> insert_all m ~objects ~seed);
  Nvm.Pmem.persist_all m.Machine.pmem;
  m
