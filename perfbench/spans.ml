(* An in-memory span store for the traced run. Every span is kept (unlike
   the session Obs.Trace, which retains only its first 4096) and the
   whole store is written as Chrome trace JSON when the run ends.

   A span records its name, its parent, the batch it belongs to (spans
   of one batch share that identifier), wall start/stop and the words
   allocated while it was open. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  batch : int;
  name : string;
  start : float;
  mutable stop : float;
  words_at_start : float;
  mutable words : float;
}

type t = {
  mutable spans : span array;
  mutable count : int;
  mutable stack : span list;
  mutable batch : int;
}

let create () = { spans = [||]; count = 0; stack = []; batch = 0 }
let set_batch t b = t.batch <- b

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let push t s =
  if t.count = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.count)) s in
    Array.blit t.spans 0 grown 0 t.count;
    t.spans <- grown
  end;
  t.spans.(t.count) <- s;
  t.count <- t.count + 1

let span t name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    {
      id = t.count;
      parent;
      batch = t.batch;
      name;
      start = Unix.gettimeofday ();
      stop = 0.;
      words_at_start = allocated ();
      words = 0.;
    }
  in
  push t s;
  t.stack <- s :: t.stack;
  let finish () =
    s.words <- allocated () -. s.words_at_start;
    s.stop <- Unix.gettimeofday ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

type totals = { calls : int; seconds : float; self_seconds : float; words : float }

(* Per-name totals. Self time is a span's duration minus the time its
   direct children cover (children never overlap their parent's other
   children: the store is single-threaded). *)
let totals t =
  let child_time = Array.make t.count 0. in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      child_time.(s.parent) <- child_time.(s.parent) +. (s.stop -. s.start)
  done;
  let table = Hashtbl.create 32 in
  for i = 0 to t.count - 1 do
    let s = t.spans.(i) in
    let d = s.stop -. s.start in
    let prev =
      Option.value (Hashtbl.find_opt table s.name)
        ~default:{ calls = 0; seconds = 0.; self_seconds = 0.; words = 0. }
    in
    Hashtbl.replace table s.name
      {
        calls = prev.calls + 1;
        seconds = prev.seconds +. d;
        self_seconds = prev.self_seconds +. d -. child_time.(i);
        words = prev.words +. s.words;
      }
  done;
  fun name ->
    Option.value (Hashtbl.find_opt table name)
      ~default:{ calls = 0; seconds = 0.; self_seconds = 0.; words = 0. }

let write_chrome t ~path =
  let origin = if t.count = 0 then 0. else t.spans.(0).start in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      for i = 0 to t.count - 1 do
        let s = t.spans.(i) in
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          {|{"name":"%s","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"batch":%d,"words":%.0f}}|}
          s.name
          ((s.start -. origin) *. 1e6)
          ((s.stop -. s.start) *. 1e6)
          s.id s.parent s.batch s.words
      done;
      output_string oc "]}\n")
