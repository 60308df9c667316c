module Heap_gc = Pheap.Heap_gc

type cell = {
  variant : Machine.variant;
  objects : int;
  mode : Machine.recovery_mode;
  outage_cycles : int;
  background_cycles : int;
  on_demand_touches : int;
  phases : (string * int) list;
  gc : Heap_gc.stats option;
  verdict : string;
  heap_audit_ok : bool;
  image_hash : int;
}

let fnv_prime = 0x100000001b3

(* For a zero word the FNV-1a step is [h <- h * p mod 2^62], so the 512
   zero words of an untouched page fold into one multiply by
   [p^512 mod 2^62]. *)
let zero_page_factor =
  let q = ref 1 in
  for _ = 1 to Nvm.Memory.page_size / 8 do
    q := !q * fnv_prime land max_int
  done;
  !q

(* FNV-1a over every heap word (peeks: free, no cache effects).  Two
   recoveries that leave byte-identical heap images hash equal; any
   divergence — stats aside — shows up here.  A whole page in range that
   was never written is folded in one step, without reading it. *)
let image_hash pmem ~lo ~hi =
  let page = Nvm.Memory.page_size in
  let h = ref 0x3bf29ce484222325 (* FNV offset basis, truncated to 62 bits *) in
  let a = ref lo in
  while !a < hi do
    if
      !a land (page - 1) = 0
      && !a + page <= hi
      && Nvm.Pmem.peek_page_untouched pmem !a
    then begin
      h := !h * zero_page_factor land max_int;
      a := !a + page
    end
    else begin
      let w = Nvm.Pmem.peek_int pmem !a in
      h := (!h lxor w) * fnv_prime land max_int;
      a := !a + 8
    end
  done;
  !h

let default_spec ~variant ~seed =
  { Runner.default_config with variant; threads = 4; seed }

(* One measurement on a populated machine: crash it, recover in [mode],
   and account every phase.  [touch] keys are recovered on demand first
   in incremental mode (simulating the requests that arrive
   mid-recovery) before the background collection is driven to
   completion.  The cell reports only the recovery phases, so the
   tracer is attached here, after populating. *)
let recover_cell (m : Machine.t) ~objects ~mode ?(touches = 0) () =
  let tracer = Obs.Tracer.create ~ring_cap:4096 () in
  let m = Machine.with_tracer m tracer in
  ignore (Machine.crash_execute m : Tsp_core.Crash_executor.execution);
  let r = Machine.recover ~mode m in
  (* Incremental: the machine is already serving; charge a sample of
     on-demand touches (first-touch key recoveries), then let the
     background collector finish.  Everything after the outage is
     availability-overlapped work. *)
  let on_demand_touches = ref 0 in
  (match r.Machine.gc_pending with
  | Some inc ->
      for _ = 1 to touches do
        ignore (Heap_gc.Incremental.on_demand inc : int)
      done;
      ignore (Heap_gc.Incremental.advance inc ~budget:max_int : int);
      on_demand_touches := Heap_gc.Incremental.on_demand_count inc
  | None -> ());
  let background_cycles =
    match r.Machine.gc_pending with
    | Some inc -> Heap_gc.Incremental.total_cycles inc
    | None -> 0
  in
  ignore
    (Machine.finish_background_gc m
      : (Heap_gc.stats * Heap_gc.quarantine) option);
  let phases =
    List.init Obs.Event.n_phases (fun p ->
        (Obs.Event.phase_name p, Obs.Tracer.phase_cycles tracer p))
    |> List.filter (fun (_, c) -> c > 0)
  in
  {
    variant = m.Machine.spec.Machine.variant;
    objects;
    mode;
    outage_cycles = r.Machine.recovery_cycles;
    background_cycles;
    on_demand_touches = !on_demand_touches;
    phases;
    gc = r.Machine.gc;
    verdict = Fmt.str "%a" Atlas.Recovery.pp_verdict r.Machine.recovery_verdict;
    heap_audit_ok = r.Machine.heap_audit_ok;
    image_hash =
      image_hash m.Machine.pmem ~lo:0 ~hi:(Machine.log_base m.Machine.spec);
  }

(* The pre-crash image is a pure function of (variant, objects, seed),
   so cells are comparable across modes and job counts. *)
let run_cell ?(spec = None) ~variant ~objects ~mode ~seed ?touches () =
  let base = match spec with Some s -> s | None -> default_spec ~variant ~seed in
  recover_cell
    (Populate.build { base with Machine.tracer = None } ~objects ~seed)
    ~objects ~mode ?touches ()

(* Structural identity minus [mode]: jobs-identity compares parallel:1
   against parallel:N. *)
let cells_match a b = { a with mode = b.mode } = b

(* The rules one (variant, size)'s cells obey, each broken one as a
   failure message: every cell passes its heap audit, every mode leaves
   the first cell's image, the parallel cells match across job counts,
   and the incremental outage is shorter than the eager one. *)
let violations = function
  | [] -> []
  | first :: _ as cells ->
      let out = ref [] in
      let fail fmt =
        Fmt.kstr
          (fun s -> out := s :: !out)
          ("%s/%d: " ^^ fmt)
          (Machine.variant_to_string first.variant)
          first.objects
      in
      let mode c = Machine.recovery_mode_to_string c.mode in
      List.iter
        (fun c ->
          if c.image_hash <> first.image_hash then
            fail "%s image %x differs from %s image %x" (mode c) c.image_hash
              (mode first) first.image_hash;
          if not c.heap_audit_ok then fail "%s failed the heap audit" (mode c))
        cells;
      (match
         List.filter
           (fun c -> match c.mode with Machine.Parallel_gc _ -> true | _ -> false)
           cells
       with
      | p1 :: rest ->
          List.iter
            (fun p ->
              if not (cells_match p1 p) then
                fail
                  "parallel cells diverge across job counts (determinism \
                   violation)")
            rest
      | [] -> ());
      let find m = List.find_opt (fun c -> c.mode = m) cells in
      (match (find Machine.Eager, find Machine.Incremental_gc) with
      | Some e, Some i when i.outage_cycles >= e.outage_cycles ->
          fail "incremental outage (%d cycles) is not shorter than eager (%d \
                cycles)"
            i.outage_cycles e.outage_cycles
      | _ -> ());
      List.rev !out

(* One measurement cell as a results-artifact object. *)
let cell_to_json j c =
  let module J = Obs.Json in
  J.obj_open j;
  J.key j "variant";
  J.str j (Machine.variant_to_cli_string c.variant);
  J.key j "objects";
  J.int j c.objects;
  J.key j "mode";
  J.str j (Machine.recovery_mode_to_string c.mode);
  J.key j "outage_cycles";
  J.int j c.outage_cycles;
  J.key j "background_cycles";
  J.int j c.background_cycles;
  J.key j "on_demand_touches";
  J.int j c.on_demand_touches;
  J.key j "phases";
  J.obj_open j;
  List.iter
    (fun (name, cy) ->
      J.key j name;
      J.int j cy)
    c.phases;
  J.obj_close j;
  J.key j "verdict";
  J.str j c.verdict;
  J.key j "heap_audit_ok";
  J.bool j c.heap_audit_ok;
  J.key j "image_hash";
  J.str j (Printf.sprintf "%016x" c.image_hash);
  J.obj_close j
