type t = {
  pmem : Nvm.Pmem.t;
  base : int;
  num_threads : int;
  buf_bytes : int;
  bufs_start : int;
  heads : int array;  (* volatile; rediscovered by scanning after a crash *)
  tails : int array;  (* volatile mirror of the persistent descriptors *)
}

exception Log_full of { tid : int }

let log_magic = 0x5453504C4F473131L (* "TSPLOG11" *)
let entry_bytes = Log_entry.bytes

let desc_addr base tid = base + 64 + (tid * 16)

let layout ~base ~size ~num_threads =
  let descs_end = base + 64 + (num_threads * 16) in
  let bufs_start = (descs_end + 63) / 64 * 64 in
  let avail = base + size - bufs_start in
  let buf_bytes = avail / num_threads / 64 * 64 in
  if buf_bytes < 4 * entry_bytes then
    Fmt.invalid_arg "Undo_log: region of %d bytes too small for %d threads"
      size num_threads;
  (bufs_start, buf_bytes)

let buf_start t tid = t.bufs_start + (tid * t.buf_bytes)
let buf_end t tid = buf_start t tid + t.buf_bytes

let next_slot_of ~bstart ~bend a =
  let a' = a + entry_bytes in
  if a' >= bend then bstart else a'

let next_slot t a =
  (* Recover which buffer [a] belongs to from the address itself. *)
  let tid = (a - t.bufs_start) / t.buf_bytes in
  next_slot_of ~bstart:(buf_start t tid) ~bend:(buf_end t tid) a

let format pmem ~base ~size ~num_threads =
  if num_threads <= 0 then invalid_arg "Undo_log.format: no threads";
  let bufs_start, buf_bytes = layout ~base ~size ~num_threads in
  let t =
    {
      pmem;
      base;
      num_threads;
      buf_bytes;
      bufs_start;
      heads = Array.init num_threads (fun tid -> bufs_start + (tid * buf_bytes));
      tails = Array.init num_threads (fun tid -> bufs_start + (tid * buf_bytes));
    }
  in
  Nvm.Pmem.store pmem base log_magic;
  Nvm.Pmem.store_int pmem (base + 8) num_threads;
  Nvm.Pmem.store_int pmem (base + 16) buf_bytes;
  (* Durability watermark: -1 = not applicable (immediate-durability
     modes); >= 0 = highest commit sequence whose data is durable. *)
  Nvm.Pmem.store_int pmem (base + 24) (-1);
  Nvm.Pmem.flush pmem base;
  for tid = 0 to num_threads - 1 do
    Nvm.Pmem.store_int pmem (desc_addr base tid) (buf_start t tid);
    Nvm.Pmem.flush pmem (desc_addr base tid);
    (* Plant the sentinel: the slot at the head must never decode. *)
    Nvm.Pmem.store pmem (buf_start t tid) 0L;
    Nvm.Pmem.flush pmem (buf_start t tid)
  done;
  Nvm.Pmem.fence pmem;
  t

(* Every header field can be garbage after bit rot, so validate each one
   before trusting it as an address or a loop bound. *)
let attach_result pmem ~base =
  let region = (Nvm.Pmem.config pmem).Nvm.Config.region_size in
  let magic = Nvm.Pmem.load pmem base in
  if not (Int64.equal magic log_magic) then
    Error (Fmt.str "bad magic %Lx at %d" magic base)
  else
    let num_threads = Nvm.Pmem.load_int pmem (base + 8) in
    let buf_bytes = Nvm.Pmem.load_int pmem (base + 16) in
    if num_threads <= 0 || num_threads > 4096 then
      Error (Fmt.str "implausible thread count %d" num_threads)
    else if buf_bytes < 4 * entry_bytes || buf_bytes mod 64 <> 0 then
      Error (Fmt.str "implausible buffer size %d" buf_bytes)
    else
      let descs_end = base + 64 + (num_threads * 16) in
      let bufs_start = (descs_end + 63) / 64 * 64 in
      if bufs_start + (num_threads * buf_bytes) > region then
        Error
          (Fmt.str "layout (%d threads x %d bytes) exceeds the region"
             num_threads buf_bytes)
      else
        let tails =
          Array.init num_threads (fun tid ->
              Nvm.Pmem.load_int pmem (desc_addr base tid))
        in
        Ok
          {
            pmem;
            base;
            num_threads;
            buf_bytes;
            bufs_start;
            heads = Array.copy tails;
            tails;
          }

let attach pmem ~base =
  match attach_result pmem ~base with
  | Ok t -> t
  | Error msg -> Fmt.invalid_arg "Undo_log.attach: %s" msg

let num_threads t = t.num_threads
let capacity_entries t = (t.buf_bytes / entry_bytes) - 1

let[@inline] append_words t ~tid ~ty ~seq ~a ~b =
  let head = t.heads.(tid) in
  let next = next_slot_of ~bstart:(buf_start t tid) ~bend:(buf_end t tid) head in
  if next = t.tails.(tid) then raise (Log_full { tid });
  Log_entry.write t.pmem ~at:head ~ty ~seq ~tid ~a ~b;
  Nvm.Pmem.store t.pmem next 0L;
  t.heads.(tid) <- next;
  head

let append t ~tid (e : Log_entry.t) =
  let ty, a, b = Log_entry.words e.payload in
  append_words t ~tid ~ty ~seq:e.seq ~a ~b

let flush_entry t ~entry_addr =
  let pmem = t.pmem in
  let line = (Nvm.Pmem.config pmem).Nvm.Config.line_size in
  Nvm.Pmem.flush pmem entry_addr;
  let sentinel = next_slot t entry_addr in
  if sentinel / line <> entry_addr / line then Nvm.Pmem.flush pmem sentinel;
  Nvm.Pmem.fence pmem

let advance_tail t ~tid ~new_tail ~flush =
  t.tails.(tid) <- new_tail;
  Nvm.Pmem.store_int t.pmem (desc_addr t.base tid) new_tail;
  if flush then begin
    Nvm.Pmem.flush t.pmem (desc_addr t.base tid);
    Nvm.Pmem.fence t.pmem
  end

let live_entries t ~tid =
  let head = t.heads.(tid) and tail = t.tails.(tid) in
  let d = if head >= tail then head - tail else head - tail + t.buf_bytes in
  d / entry_bytes

(* The ring scan behind every recovery mode.  Every word goes through
   [read]: costed device loads for the eager scan, a counting peek for
   the streamed one. *)
let scan_thread t ~tid ~read =
  let bstart = buf_start t tid and bend = buf_end t tid in
  let tail = Int64.to_int (read (desc_addr t.base tid)) in
  if tail < bstart || tail >= bend || (tail - bstart) mod entry_bytes <> 0
  then
    Error
      (Fmt.str "thread %d: corrupt tail descriptor %d (buffer [%d,%d))" tid
         tail bstart bend)
  else begin
    let cap = capacity_entries t in
    let rec go at prev_seq n acc =
      match
        if n >= cap then None
        else
          match Log_entry.read read ~at with
          | Some e when e.Log_entry.seq > prev_seq -> Some e
          | _ -> None
      with
      | Some e -> go (next_slot t at) e.Log_entry.seq (n + 1) (e :: acc)
      | None -> (List.rev acc, at, prev_seq, n)
    in
    let entries, stop_at, last_seq, n = go tail 0 0 [] in
    (* Orphans: decodable entries beyond the cut that were appended after
       the accepted window.  A nonzero count means the log was truncated
       at a torn or corrupt entry, not at its natural head.  The natural
       head is recognisable: [append] zeroes the next slot's header word
       as a sentinel, so a cut whose header word is 0 is just the head —
       whatever lies beyond it is stale ring content (consumed entries
       keep their bytes and, when the live window is empty, their seqs
       exceed [last_seq]), not evidence of truncation. *)
    let orphans = ref 0 in
    if n < cap && not (Int64.equal (read stop_at) 0L) then begin
      let at = ref (next_slot t stop_at) in
      for _ = 1 to cap - n - 1 do
        (match Log_entry.read read ~at:!at with
        | Some e when e.Log_entry.seq > last_seq -> incr orphans
        | _ -> ());
        at := next_slot t !at
      done
    end;
    Ok (entries, !orphans)
  end

let set_watermark t seq =
  Nvm.Pmem.store_int t.pmem (t.base + 24) seq;
  Nvm.Pmem.flush t.pmem (t.base + 24);
  Nvm.Pmem.fence t.pmem

let watermark t = Nvm.Pmem.load_int t.pmem (t.base + 24)
