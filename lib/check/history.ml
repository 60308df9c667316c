module Scheduler = Sched.Scheduler
module Map_intf = Tsp_maps.Map_intf

type op = Set | Get | Incr | Remove

type record = {
  op : op;
  key : int;
  arg : int64;
  tid : int;
  t0 : int;
  t1 : int;
  ok : bool;
  result : int64;
}

type t = {
  sched : Scheduler.t;
  ops : Ivec.t;
  keys : Ivec.t;
  args : Ivec.t;
  tids : Ivec.t;
  t0s : Ivec.t;
  t1s : Ivec.t;
  oks : Ivec.t;
  results : Ivec.t;
}

let create ~sched ?(capacity = 1024) () =
  let v () = Ivec.create ~capacity () in
  {
    sched;
    ops = v ();
    keys = v ();
    args = v ();
    tids = v ();
    t0s = v ();
    t1s = v ();
    oks = v ();
    results = v ();
  }

let tag = function Set -> 0 | Get -> 1 | Incr -> 2 | Remove -> 3

let op_of_tag = function
  | 0 -> Set
  | 1 -> Get
  | 2 -> Incr
  | 3 -> Remove
  | n -> Fmt.invalid_arg "History: corrupt op tag %d" n

(* The invocation half is written before the underlying operation runs;
   the response half is filled in after it returns.  A crash abandons
   the fiber inside the underlying operation, leaving t1 = -1. *)
let begin_op t op ~tid ~key ~arg =
  let i = Ivec.length t.ops in
  Ivec.push t.ops (tag op);
  Ivec.push t.keys key;
  Ivec.push t.args arg;
  Ivec.push t.tids tid;
  Ivec.push t.t0s (Scheduler.now t.sched);
  Ivec.push t.t1s (-1);
  Ivec.push t.oks 0;
  Ivec.push t.results 0;
  i

let finish_op t i ~ok ~result =
  Ivec.set t.t1s i (Scheduler.now t.sched);
  Ivec.set t.oks i (if ok then 1 else 0);
  Ivec.set t.results i result

let wrap t (m : Map_intf.ops) =
  {
    Map_intf.name = m.name;
    set =
      (fun ~tid ~key ~value ->
        let i = begin_op t Set ~tid ~key ~arg:(Int64.to_int value) in
        m.set ~tid ~key ~value;
        finish_op t i ~ok:false ~result:0);
    get =
      (fun ~tid ~key ->
        let i = begin_op t Get ~tid ~key ~arg:0 in
        let r = m.get ~tid ~key in
        (match r with
        | Some v -> finish_op t i ~ok:true ~result:(Int64.to_int v)
        | None -> finish_op t i ~ok:false ~result:0);
        r);
    incr =
      (fun ~tid ~key ~by ->
        let i = begin_op t Incr ~tid ~key ~arg:(Int64.to_int by) in
        m.incr ~tid ~key ~by;
        finish_op t i ~ok:false ~result:0);
    remove =
      (fun ~tid ~key ->
        let i = begin_op t Remove ~tid ~key ~arg:0 in
        let r = m.remove ~tid ~key in
        finish_op t i ~ok:r ~result:0;
        r);
  }

let length t = Ivec.length t.ops

let nth t i =
  {
    op = op_of_tag (Ivec.get t.ops i);
    key = Ivec.get t.keys i;
    arg = Int64.of_int (Ivec.get t.args i);
    tid = Ivec.get t.tids i;
    t0 = Ivec.get t.t0s i;
    t1 = Ivec.get t.t1s i;
    ok = Ivec.get t.oks i <> 0;
    result = Int64.of_int (Ivec.get t.results i);
  }

let records t = List.init (length t) (nth t)

let pending t =
  let n = ref 0 in
  for i = 0 to length t - 1 do
    if Ivec.get t.t1s i < 0 then incr n
  done;
  !n

let completed t = length t - pending t
