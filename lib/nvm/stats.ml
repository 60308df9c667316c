type t = {
  mutable loads : int;
  mutable load_hits : int;
  mutable load_misses : int;
  mutable stores : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable cas_ops : int;
  mutable cas_failures : int;
  mutable flushes : int;
  mutable fences : int;
  mutable writebacks : int;
  mutable crashes : int;
  mutable rescued_lines : int;
  mutable dropped_lines : int;
  mutable torn_lines : int;
  mutable flipped_bits : int;
  mutable clock : int;
  mutable load_cycles : int;
  mutable store_cycles : int;
  mutable cas_cycles : int;
  mutable flush_cycles : int;
  mutable fence_cycles : int;
  mutable compute_cycles : int;
}

let create () =
  {
    loads = 0;
    load_hits = 0;
    load_misses = 0;
    stores = 0;
    store_hits = 0;
    store_misses = 0;
    cas_ops = 0;
    cas_failures = 0;
    flushes = 0;
    fences = 0;
    writebacks = 0;
    crashes = 0;
    rescued_lines = 0;
    dropped_lines = 0;
    torn_lines = 0;
    flipped_bits = 0;
    clock = 0;
    load_cycles = 0;
    store_cycles = 0;
    cas_cycles = 0;
    flush_cycles = 0;
    fence_cycles = 0;
    compute_cycles = 0;
  }

let reset t =
  t.loads <- 0;
  t.load_hits <- 0;
  t.load_misses <- 0;
  t.stores <- 0;
  t.store_hits <- 0;
  t.store_misses <- 0;
  t.cas_ops <- 0;
  t.cas_failures <- 0;
  t.flushes <- 0;
  t.fences <- 0;
  t.writebacks <- 0;
  t.crashes <- 0;
  t.rescued_lines <- 0;
  t.dropped_lines <- 0;
  t.torn_lines <- 0;
  t.flipped_bits <- 0;
  t.clock <- 0;
  t.load_cycles <- 0;
  t.store_cycles <- 0;
  t.cas_cycles <- 0;
  t.flush_cycles <- 0;
  t.fence_cycles <- 0;
  t.compute_cycles <- 0

let total_ops t = t.loads + t.stores + t.cas_ops + t.flushes + t.fences

let hit_rate t =
  let accesses = t.loads + t.stores in
  if accesses = 0 then nan
  else float_of_int (t.load_hits + t.store_hits) /. float_of_int accesses

let cycle_category_names =
  [| "loads"; "stores"; "cas"; "flushes"; "fences"; "compute" |]

let cycle_totals t =
  [|
    t.load_cycles; t.store_cycles; t.cas_cycles; t.flush_cycles;
    t.fence_cycles; t.compute_cycles;
  |]

let sum_cycle_totals totals =
  let acc = Array.make (Array.length cycle_category_names) 0 in
  List.iter (Array.iteri (fun i v -> acc.(i) <- acc.(i) + v)) totals;
  acc

let pp_breakdown_totals ppf totals =
  let sum = Array.fold_left ( + ) 0 totals in
  let total = max 1 sum in
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun i v ->
      Fmt.pf ppf "%-8s %12d cycles  %5.1f%%@ " cycle_category_names.(i) v
        (100. *. float_of_int v /. float_of_int total))
    totals;
  Fmt.pf ppf "total    %12d cycles@]" sum

let pp_breakdown ppf t = pp_breakdown_totals ppf (cycle_totals t)
