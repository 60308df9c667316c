type check = { name : string; ok : bool; detail : string }
type result = { ok : bool; checks : check list }

let make checks = { ok = List.for_all (fun (c : check) -> c.ok) checks; checks }

(* What the workload added to the H keys: each H key's value less its
   value in [initial], where a key [initial] leaves out started at 0. *)
let sum_h_added ~initial entries =
  let before = Hashtbl.create 64 in
  List.iter
    (fun (key, v) ->
      if Key_space.is_h key && not (Int64.equal v 0L) then
        Hashtbl.replace before key v)
    initial;
  List.fold_left
    (fun sum (key, v) ->
      if Key_space.is_h key then
        Int64.add sum
          (Int64.sub v
             (Option.value (Hashtbl.find_opt before key) ~default:0L))
      else sum)
    0L entries

let counter_sums ~initial ~entries ~threads =
  let c1 = Array.make threads 0L in
  let c2 = Array.make threads 0L in
  List.iter
    (fun (key, v) ->
      if (not (Key_space.is_h key)) && Key_space.is_counter ~threads key then
        if key land 1 = 0 then c1.(key / 2) <- v else c2.(key / 2) <- v)
    entries;
  (c1, c2, sum_h_added ~initial entries)

let per_thread_check ~threads c1 c2 =
  let bad = ref [] in
  for tid = 0 to threads - 1 do
    if not (c2.(tid) <= c1.(tid) && c1.(tid) <= Int64.add c2.(tid) 1L) then
      bad := tid :: !bad
  done;
  {
    name = "per-thread: c2 <= c1 <= c2 + 1";
    ok = !bad = [];
    detail =
      (match !bad with
      | [] -> "all threads consistent"
      | l ->
          Printf.sprintf "violated by threads %s"
            (String.concat "," (List.map string_of_int l)));
  }

let counters ~initial ~entries ~threads =
  let c1, c2, sum_h = counter_sums ~initial ~entries ~threads in
  let sum_h = ref sum_h in
  let sum a = Array.fold_left Int64.add 0L a in
  let sum_c1 = sum c1 and sum_c2 = sum c2 in
  let diff = Int64.sub sum_c1 sum_c2 in
  let eq1 =
    {
      name = "eq1: 0 <= sum(c1) - sum(c2) <= T";
      ok = diff >= 0L && diff <= Int64.of_int threads;
      detail =
        Printf.sprintf "sum(c1)=%Ld sum(c2)=%Ld diff=%Ld T=%d" sum_c1 sum_c2
          diff threads;
    }
  in
  let eq2 =
    {
      name = "eq2: sum(c1) >= sum(H) >= sum(c2)";
      ok = sum_c1 >= !sum_h && !sum_h >= sum_c2;
      detail =
        Printf.sprintf "sum(c1)=%Ld sum(H)=%Ld sum(c2)=%Ld" sum_c1 !sum_h
          sum_c2;
    }
  in
  let per_thread = per_thread_check ~threads c1 c2 in
  make [ eq1; eq2; per_thread ]

let counters_resumed ~initial ~entries ~threads =
  let c1, c2, sum_h = counter_sums ~initial ~entries ~threads in
  let sum a = Array.fold_left Int64.add 0L a in
  let sum_c1 = sum c1 and sum_c2 = sum c2 in
  let t64 = Int64.of_int threads in
  let diff = Int64.sub sum_c1 sum_c2 in
  let eq1 =
    {
      name = "eq1: 0 <= sum(c1) - sum(c2) <= T";
      ok = diff >= 0L && diff <= t64;
      detail = Printf.sprintf "sum(c1)=%Ld sum(c2)=%Ld" sum_c1 sum_c2;
    }
  in
  let eq2' =
    {
      name = "eq2 (at-least-once): sum(c1) <= sum(H) <= sum(c1) + T";
      ok = sum_c1 <= sum_h && sum_h <= Int64.add sum_c1 t64;
      detail =
        Printf.sprintf "sum(c1)=%Ld sum(H)=%Ld duplicates=%Ld" sum_c1 sum_h
          (Int64.sub sum_h sum_c1);
    }
  in
  let per_thread = per_thread_check ~threads c1 c2 in
  make [ eq1; eq2'; per_thread ]

let transfers ~entries ~expected_total =
  let total = ref 0L in
  let negative = ref 0 in
  List.iter
    (fun (_, v) ->
      total := Int64.add !total v;
      if v < 0L then incr negative)
    entries;
  let conservation =
    {
      name = "conservation: sum(balances) = initial total";
      ok = Int64.equal !total expected_total;
      detail = Printf.sprintf "sum=%Ld expected=%Ld" !total expected_total;
    }
  in
  let non_negative =
    {
      name = "no negative balances";
      ok = !negative = 0;
      detail = Printf.sprintf "%d negative balances" !negative;
    }
  in
  make [ conservation; non_negative ]

let failed msg =
  { ok = false; checks = [ { name = "verifiable state"; ok = false; detail = msg } ] }

let pp ppf r =
  let pp_check ppf (c : check) =
    Fmt.pf ppf "%s %s (%s)" (if c.ok then "PASS" else "FAIL") c.name c.detail
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_check) r.checks

let untorn ~wide_entries =
  let torn = ref 0 and total = ref 0 in
  List.iter
    (fun (_, (values : int64 array)) ->
      incr total;
      if Array.length values > 1 then begin
        let first = values.(0) in
        if not (Array.for_all (Int64.equal first) values) then incr torn
      end)
    wide_entries;
  make
    [
      {
        name = "untorn: all words of every value agree";
        ok = !torn = 0;
        detail = Printf.sprintf "%d of %d values torn" !torn !total;
      };
    ]

let ycsb ~entries ~records =
  let size_ok =
    {
      name = "ycsb: record count unchanged";
      ok = List.length entries = records;
      detail = Printf.sprintf "%d records, expected %d" (List.length entries) records;
    }
  in
  let bad = ref 0 in
  List.iter
    (fun (k, v) ->
      let m = Int64.of_int records in
      if Int64.rem (Int64.sub v (Int64.of_int k)) m <> 0L then incr bad)
    entries;
  let congruent =
    {
      name = "ycsb: values congruent to keys (mod records)";
      ok = !bad = 0;
      detail = Printf.sprintf "%d incongruent values" !bad;
    }
  in
  make [ size_ok; congruent ]
