type t = {
  name : string;
  ghz : float;
  region_size : int;
  line_size : int;
  cache_lines : int;
  cache_ways : int;
  load_hit : int;
  load_miss : int;
  store_cost : int;
  store_miss_extra : int;
  flush_cost : int;
  fence_cost : int;
  cas_extra : int;
}

(* Latency values are calibrated so that the counter workload of Section 5
   lands in the throughput regime of Table 1 (hundreds of cycles per
   three-operation iteration).  The absolute values are typical published
   figures for Haswell/Ivy Bridge-EX class parts: ~4 cycles L1 hit, ~200
   cycles DRAM miss, ~250-350 cycles for a synchronous cache-line flush
   reaching the memory controller's persistence domain. *)

let desktop =
  {
    name = "ENVY Phoenix 800";
    ghz = 3.4;
    region_size = 64 * 1024 * 1024;
    line_size = 64;
    cache_lines = 8192;
    cache_ways = 8;
    load_hit = 4;
    load_miss = 200;
    store_cost = 4;
    store_miss_extra = 60;
    flush_cost = 210;
    fence_cost = 35;
    cas_extra = 16;
  }

let server =
  {
    name = "DL580 Gen8";
    ghz = 2.8;
    region_size = 64 * 1024 * 1024;
    line_size = 64;
    cache_lines = 16384;
    cache_ways = 16;
    load_hit = 5;
    load_miss = 280;
    store_cost = 5;
    store_miss_extra = 80;
    flush_cost = 230;
    fence_cost = 40;
    cas_extra = 24;
  }

let test_small =
  {
    name = "test-small";
    ghz = 1.0;
    region_size = 64 * 1024;
    line_size = 64;
    cache_lines = 16;
    cache_ways = 2;
    load_hit = 1;
    load_miss = 10;
    store_cost = 1;
    store_miss_extra = 5;
    flush_cost = 20;
    fence_cost = 5;
    cas_extra = 2;
  }

let of_string = function
  | "desktop" | "envy" -> Ok desktop
  | "server" | "dl580" -> Ok server
  | s -> Error (Printf.sprintf "unknown platform %S" s)

let to_cli_string t =
  List.assoc_opt t.name [ (desktop.name, "desktop"); (server.name, "server") ]
  |> Option.value ~default:t.name

let round_up n multiple = (n + multiple - 1) / multiple * multiple

let with_region_size t bytes =
  { t with region_size = round_up (max bytes t.line_size) t.line_size }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate t =
  (* Thunked so that later checks may assume earlier ones passed (e.g.
     the divisibility test needs a non-zero way count). *)
  let checks =
    [
      ((fun () -> is_power_of_two t.line_size),
       "line_size must be a power of two");
      ((fun () -> t.line_size <= Memory.page_size),
       Printf.sprintf "line_size must not exceed the %d-byte memory page"
         Memory.page_size);
      ((fun () -> t.region_size > 0), "region_size must be positive");
      ((fun () -> t.region_size mod t.line_size = 0),
       "region_size must be a multiple of line_size");
      ((fun () -> t.cache_ways > 0), "cache_ways must be positive");
      ((fun () -> t.cache_lines mod t.cache_ways = 0),
       "cache_lines must be a multiple of cache_ways");
      ((fun () -> is_power_of_two (t.cache_lines / t.cache_ways)),
       "cache_lines / cache_ways (the set count) must be a power of two");
      ((fun () -> t.ghz > 0.), "ghz must be positive");
      ((fun () ->
         t.load_hit >= 0 && t.load_miss >= 0 && t.store_cost >= 0
         && t.store_miss_extra >= 0 && t.flush_cost >= 0 && t.fence_cost >= 0
         && t.cas_extra >= 0),
       "latencies must be non-negative");
    ]
  in
  let rec go = function
    | [] -> Ok ()
    | (cond, msg) :: rest -> if cond () then go rest else Error msg
  in
  go checks

let n_sets t = t.cache_lines / t.cache_ways
