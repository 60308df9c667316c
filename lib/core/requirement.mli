(** Application fault-tolerance requirements (Section 3).

    Requirements must say {e which} failures are tolerated, {e what} data
    must survive them, and whether tolerated failures are fail-stop or
    may first corrupt application data (a memory-safety bug scribbling
    over the heap before the crash). *)

type scope =
  | Persistent_heap
      (** only data in the persistent heap is critical; thread stacks and
          other process state may be lost *)
  | Whole_process
      (** the entire process image must survive (WSP-style) *)

type integrity =
  | Fail_stop
      (** failures halt execution without corrupting the heap first *)
  | Corrupting_sections
      (** failures may corrupt data {e inside} an in-flight critical
          section; recovery must be able to roll the section back, which
          requires Atlas-style logging (Section 4.2) — non-blocking
          structures cannot undo a corrupted in-place update *)

type t = {
  tolerated : Failure_class.t list;
  scope : scope;
  integrity : integrity;
}

val default : t
(** Heap-scoped, fail-stop, tolerating all three failure classes. *)

val make :
  ?scope:scope -> ?integrity:integrity -> Failure_class.t list -> t

val mechanism : t -> [ `Non_blocking_suffices | `Needs_rollback ]
(** Which of the paper's two case-study mechanisms the requirement
    admits: with {!Corrupting_sections} tolerance, only the Atlas
    approach works (Section 4.2); under {!Fail_stop}, a non-blocking
    structure plus TSP needs no mechanism at all (Section 4.1). *)
