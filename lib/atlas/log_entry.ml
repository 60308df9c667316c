type payload =
  | Begin of { ocs : int }
  | Update of { addr : int; old : int64 }
  | Dep of { on_ocs : int; mutex : int }
  | Commit of { ocs : int }

type t = { seq : int; tid : int; payload : payload }

let bytes = 32
let magic = 0xE7

(* Header type codes, one per payload constructor; [read] decodes
   them. *)
let begin_ty = 1
let update_ty = 2
let dep_ty = 3
let commit_ty = 4

let words = function
  | Begin { ocs } -> (begin_ty, ocs, 0L)
  | Update { addr; old } -> (update_ty, addr, old)
  | Dep { on_ocs; mutex } -> (dep_ty, on_ocs, Int64.of_int mutex)
  | Commit { ocs } -> (commit_ty, ocs, 0L)

let[@inline] checksum ~ty ~seq ~a ~b =
  let fold v =
    let v = Int64.logxor v (Int64.shift_right_logical v 32) in
    let v = Int64.logxor v (Int64.shift_right_logical v 16) in
    Int64.to_int v land 0xffff
  in
  fold (Int64.logxor (Int64.of_int (ty lsl 8)) (Int64.logxor seq (Int64.logxor a b)))

(* The one encoder.  Inlined into [Undo_log.append_words] and on into
   the runtime's appends, so every word stays unboxed from the caller
   to the device: no record, payload, tuple or store closure is built
   per entry. *)
let[@inline] write pmem ~at ~ty ~seq ~tid ~a ~b =
  let ck = checksum ~ty ~seq:(Int64.of_int seq) ~a:(Int64.of_int a) ~b in
  let w0 =
    Int64.logor
      (Int64.shift_left (Int64.of_int magic) 56)
      (Int64.logor
         (Int64.shift_left (Int64.of_int ty) 48)
         (Int64.logor
            (Int64.shift_left (Int64.of_int ck) 32)
            (Int64.of_int (tid land 0xffffffff))))
  in
  Nvm.Pmem.store_int pmem (at + 8) seq;
  Nvm.Pmem.store_int pmem (at + 16) a;
  Nvm.Pmem.store pmem (at + 24) b;
  (* Header last: a torn entry whose header never made it is simply
     invisible rather than mis-checksummed. *)
  Nvm.Pmem.store pmem at w0

let read load ~at =
  let w0 = load at in
  let m = Int64.to_int (Int64.shift_right_logical w0 56) land 0xff in
  if m <> magic then None
  else
    let ty = Int64.to_int (Int64.shift_right_logical w0 48) land 0xff in
    let ck = Int64.to_int (Int64.shift_right_logical w0 32) land 0xffff in
    let tid = Int64.to_int (Int64.logand w0 0xffffffffL) in
    let seq64 = load (at + 8) in
    let a = load (at + 16) in
    let b = load (at + 24) in
    if checksum ~ty ~seq:seq64 ~a ~b <> ck then None
    else
      let seq = Int64.to_int seq64 in
      let payload =
        match ty with
        | 1 -> Some (Begin { ocs = Int64.to_int a })
        | 2 -> Some (Update { addr = Int64.to_int a; old = b })
        | 3 -> Some (Dep { on_ocs = Int64.to_int a; mutex = Int64.to_int b })
        | 4 -> Some (Commit { ocs = Int64.to_int a })
        | _ -> None
      in
      Option.map (fun payload -> { seq; tid; payload }) payload

let pp ppf e =
  let p ppf = function
    | Begin { ocs } -> Fmt.pf ppf "begin ocs=%d" ocs
    | Update { addr; old } -> Fmt.pf ppf "update addr=%d old=%Ld" addr old
    | Dep { on_ocs; mutex } -> Fmt.pf ppf "dep on=%d mutex=%d" on_ocs mutex
    | Commit { ocs } -> Fmt.pf ppf "commit ocs=%d" ocs
  in
  Fmt.pf ppf "[seq=%d tid=%d %a]" e.seq e.tid p e.payload
