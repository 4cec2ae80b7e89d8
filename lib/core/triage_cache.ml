module Params = Stratrec_model.Params
module Obs = Stratrec_obs

type config = { capacity : int }

let default_config = { capacity = 2048 }

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" | "none" -> Ok None
  | "on" | "default" -> Ok (Some default_config)
  | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Some { capacity = n })
      | Some _ | None ->
          Error
            (Printf.sprintf
               "invalid cache policy %S (expected \"off\", \"on\" or a positive \
                capacity)"
               s))

let policy_to_string = function
  | None -> "off"
  | Some { capacity } -> string_of_int capacity

(* The table key quantizes the parameter triple; [exact]/[exact_k] below
   carry the unquantized original, so a quantization collision surfaces
   as a miss instead of a wrong answer. *)
type key = { q : int; c : int; l : int; kk : int }

type entry = {
  key : key;
  exact : Params.t;
  exact_k : int;
  answer : Adpar.answer;
  (* doubly-linked LRU list, most-recent at [head] *)
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  registry : Obs.Registry.t;
  c_hits : Obs.Registry.counter;
  c_misses : Obs.Registry.counter;
  c_evictions : Obs.Registry.counter;
}

let create ?(config = default_config) ~metrics () =
  if config.capacity < 1 then
    invalid_arg "Stratrec.Triage_cache.create: capacity must be >= 1";
  let counter name =
    let c = Obs.Registry.counter metrics name in
    (* Register at 0 so scrape surfaces carry the family before the
       first probe. *)
    Obs.Registry.incr_by c 0;
    c
  in
  {
    capacity = config.capacity;
    table = Hashtbl.create (min config.capacity 1024);
    head = None;
    tail = None;
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    registry = metrics;
    c_hits = counter "cache.hits_total";
    c_misses = counter "cache.misses_total";
    c_evictions = counter "cache.evictions_total";
  }

let quantum = 1e-6
let quantize v = int_of_float (Float.round (v /. quantum))

let key_of (p : Params.t) k =
  {
    q = quantize p.Params.quality;
    c = quantize p.Params.cost;
    l = quantize p.Params.latency;
    kk = k;
  }

(* --- LRU list --- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
      unlink t e;
      push_front t e

(* --- find / store --- *)

let find t ~params ~k =
  let key = key_of params k in
  match Hashtbl.find_opt t.table key with
  | Some e when Params.equal e.exact params && e.exact_k = k ->
      t.hits <- t.hits + 1;
      Obs.Registry.incr t.c_hits;
      touch t e;
      Some e.answer
  | Some _ | None ->
      (* a quantized collision with different exact params counts (and
         behaves) as a miss; the subsequent store replaces the entry *)
      t.misses <- t.misses + 1;
      Obs.Registry.incr t.c_misses;
      None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
      unlink t e;
      Hashtbl.remove t.table e.key;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1;
      Obs.Registry.incr t.c_evictions

let store t ~params ~k answer =
  let key = key_of params k in
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.table key;
      t.size <- t.size - 1
  | None -> ());
  if t.size >= t.capacity then evict_lru t;
  let e = { key; exact = params; exact_k = k; answer; prev = None; next = None } in
  Hashtbl.replace t.table key e;
  push_front t e;
  t.size <- t.size + 1

(* --- stats --- *)

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; size = t.size }

let hit_ratio (t : t) =
  let probes = t.hits + t.misses in
  if probes = 0 then 0. else float_of_int t.hits /. float_of_int probes

let export t =
  if Obs.Registry.enabled t.registry then begin
    Obs.Registry.set (Obs.Registry.gauge t.registry "cache.size") (float_of_int t.size);
    Obs.Registry.set (Obs.Registry.gauge t.registry "cache.hit_ratio") (hit_ratio t)
  end
