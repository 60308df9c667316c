type ops = {
  name : string;
  set : tid:int -> key:int -> value:int64 -> unit;
  get : tid:int -> key:int -> int64 option;
  incr : tid:int -> key:int -> by:int64 -> unit;
  remove : tid:int -> key:int -> bool;
}
