(* Host-time spans recorded around the benchmark's calls into each layer.

   A span is (name, start, stop, parent, track, unit), kept in flat
   growable int vectors and written out once at exit.  Track 0 is the
   harness; map operations are recorded on track [1 + tid] of the
   simulated thread that issued them.  Simulated threads interleave
   inside one host thread, so the operation spans of different threads
   overlap: every time share below is therefore computed over the union
   of intervals, never their sum. *)

module Ivec = Check.Ivec

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  name : Ivec.t;
  start : Ivec.t;
  stop : Ivec.t;
  parent : Ivec.t;
  track : Ivec.t;
  unit_id : Ivec.t;
  mutable stack : int list;
  mutable current_unit : int;
}

let create () =
  let v () = Ivec.create ~capacity:4096 () in
  {
    ids = Hashtbl.create 64;
    names = [||];
    name = v ();
    start = v ();
    stop = v ();
    parent = v ();
    track = v ();
    unit_id = v ();
    stack = [];
    current_unit = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      Hashtbl.add t.ids s id;
      t.names <- Array.append t.names [| s |];
      id

(* The leaf span around each map operation. *)
let op_name = "tsp_maps.op"

let set_unit t u = t.current_unit <- u
let parent_of t = match t.stack with p :: _ -> p | [] -> -1

let push t ~name ~track ~start ~stop =
  let id = Ivec.length t.name in
  Ivec.push t.name name;
  Ivec.push t.start start;
  Ivec.push t.stop stop;
  Ivec.push t.parent (parent_of t);
  Ivec.push t.track track;
  Ivec.push t.unit_id t.current_unit;
  id

(* A leaf span that ended just now; used for map operations, which
   cannot be nested on the harness stack because they interleave. *)
let record t ~name ~track ~start =
  ignore (push t ~name ~track ~start ~stop:(Clock.now_ns ()) : int)

let span t name f =
  let id = push t ~name:(intern t name) ~track:0 ~start:(Clock.now_ns ()) ~stop:0 in
  t.stack <- id :: t.stack;
  let close () =
    Ivec.set t.stop id (Clock.now_ns ());
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let length t = Ivec.length t.name
let dur t i = Ivec.get t.stop i - Ivec.get t.start i

(* Durations in ns of every span called [name], in recording order. *)
let durations t name =
  match Hashtbl.find_opt t.ids name with
  | None -> [||]
  | Some id ->
      let acc = ref [] in
      for i = length t - 1 downto 0 do
        if Ivec.get t.name i = id then acc := float_of_int (dur t i) :: !acc
      done;
      Array.of_list !acc

type row = {
  span_name : string;
  count : int;
  total_ns : int;  (** sum of durations *)
  busy_ns : int;  (** union of this name's intervals, per parent *)
  self_ns : int;  (** busy time minus the time child spans cover *)
}

(* Sort span indices by [keys] (the last key being the start time), then
   call [f] with the interval-union length of every run of indices that
   agree on all keys but the last. *)
let union_runs t keys f =
  let n = length t in
  let keys = List.map Ivec.to_array keys in
  let start = Ivec.to_array t.start and stop = Ivec.to_array t.stop in
  let ids = Array.init n Fun.id in
  let rec cmp ks a b =
    match ks with
    | [] -> 0
    | k :: ks ->
        let c = Int.compare k.(a) k.(b) in
        if c <> 0 then c else cmp ks a b
  in
  Array.sort (cmp (keys @ [ start ])) ids;
  let same a b = List.for_all (fun k -> k.(a) = k.(b)) keys in
  let lo = ref 0 in
  while !lo < n do
    let first = ids.(!lo) in
    let total = ref 0 and cur_lo = ref start.(first) and cur_hi = ref stop.(first) in
    let k = ref (!lo + 1) in
    while !k < n && same first ids.(!k) do
      let s = start.(ids.(!k)) and e = stop.(ids.(!k)) in
      if s > !cur_hi then begin
        total := !total + (!cur_hi - !cur_lo);
        cur_lo := s;
        cur_hi := e
      end
      else if e > !cur_hi then cur_hi := e;
      incr k
    done;
    f first (!total + (!cur_hi - !cur_lo));
    lo := !k
  done

let table t =
  let names = Array.length t.names in
  let count = Array.make names 0 and total = Array.make names 0 in
  let busy = Array.make names 0 and covered = Array.make names 0 in
  for i = 0 to length t - 1 do
    let n = Ivec.get t.name i in
    count.(n) <- count.(n) + 1;
    total.(n) <- total.(n) + dur t i
  done;
  union_runs t [ t.parent; t.name ] (fun i u ->
      let n = Ivec.get t.name i in
      busy.(n) <- busy.(n) + u);
  union_runs t [ t.parent ] (fun i u ->
      let p = Ivec.get t.parent i in
      if p >= 0 then begin
        let n = Ivec.get t.name p in
        covered.(n) <- covered.(n) + u
      end);
  List.init names (fun n ->
      {
        span_name = t.names.(n);
        count = count.(n);
        total_ns = total.(n);
        busy_ns = busy.(n);
        self_ns = busy.(n) - covered.(n);
      })

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer: the sum of its span names' self times. *)
let layers rows =
  List.fold_left
    (fun acc r ->
      let l = layer_of r.span_name in
      let prev = Option.value (List.assoc_opt l acc) ~default:0 in
      (l, prev + r.self_ns) :: List.remove_assoc l acc)
    [] rows
  |> List.sort compare

(* Chrome trace-event JSON (Perfetto loads it).  Only the first 50 000
   map-operation spans are written, so the file stays small; every other
   span, and the self-time table, covers the whole run. *)
let write_chrome t path =
  let module J = Obs.Json in
  let j = J.create ~size:(1 lsl 20) () in
  let leaf = Hashtbl.find_opt t.ids op_name and max_leaf = 50_000 in
  let t0 = if length t = 0 then 0 else Ivec.get t.start 0 in
  let us ns = J.float ~dp:3 j (float_of_int ns /. 1000.) in
  J.obj_open j;
  J.key j "displayTimeUnit";
  J.str j "ns";
  J.key j "traceEvents";
  J.arr_open j;
  let tracks = Hashtbl.create 16 in
  for i = 0 to length t - 1 do
    Hashtbl.replace tracks (Ivec.get t.track i) ()
  done;
  Hashtbl.iter
    (fun tr () ->
      J.obj_open j;
      J.key j "name";
      J.str j "thread_name";
      J.key j "ph";
      J.str j "M";
      J.key j "pid";
      J.int j 1;
      J.key j "tid";
      J.int j tr;
      J.key j "args";
      J.obj_open j;
      J.key j "name";
      J.str j (if tr = 0 then "harness" else Printf.sprintf "sim thread %d" (tr - 1));
      J.obj_close j;
      J.obj_close j)
    tracks;
  let leaves = ref 0 in
  for i = 0 to length t - 1 do
    let is_leaf = Some (Ivec.get t.name i) = leaf in
    if is_leaf then incr leaves;
    if (not is_leaf) || !leaves <= max_leaf then begin
      let name = t.names.(Ivec.get t.name i) in
      J.obj_open j;
      J.key j "name";
      J.str j name;
      J.key j "cat";
      J.str j (layer_of name);
      J.key j "ph";
      J.str j "X";
      J.key j "ts";
      us (Ivec.get t.start i - t0);
      J.key j "dur";
      us (dur t i);
      J.key j "pid";
      J.int j 1;
      J.key j "tid";
      J.int j (Ivec.get t.track i);
      J.key j "args";
      J.obj_open j;
      J.key j "unit";
      J.int j (Ivec.get t.unit_id i);
      J.key j "parent";
      J.int j (Ivec.get t.parent i);
      J.obj_close j;
      J.obj_close j
    end
  done;
  J.arr_close j;
  J.obj_close j;
  Out_channel.with_open_bin path (fun oc -> J.to_channel oc j)
