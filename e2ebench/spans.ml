(* In-memory span recorder for the traced replay.  A span is a named
   interval with the span that was open when it started as its parent.
   Nothing is written while the replay runs. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable closed : span list;
  mutable open_ids : int list;
  mutable next : int;
}

let create () = { closed = []; open_ids = []; next = 0 }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ids with p :: _ -> Some p | [] -> None in
  t.open_ids <- id :: t.open_ids;
  let t0 = Obs.Clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      t.open_ids <- List.tl t.open_ids;
      t.closed <-
        { id; parent; name; t0; t1 = Obs.Clock.now_s () } :: t.closed)
    f

let spans t = List.rev t.closed

let duration s = s.t1 -. s.t0

(* Self time: the span's duration minus what its children cover.
   Children of one span run one after another on one thread, so their
   durations do not overlap and can be summed. *)
let self_time t s =
  List.fold_left
    (fun acc c -> if c.parent = Some s.id then acc -. duration c else acc)
    (duration s) t.closed

(* Self time of every span called [name], summed. *)
let self_total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. self_time t s else acc)
    0. t.closed
