type quota = { weight : float; max_queued : int option; max_in_flight : int option }

let default_quota = { weight = 1.; max_queued = None; max_in_flight = None }

let validate_quota q =
  if not (q.weight > 0. && Float.is_finite q.weight) then
    Error "quota weight must be positive and finite"
  else
    match (q.max_queued, q.max_in_flight) with
    | Some n, _ when n < 1 -> Error "quota max-queued must be >= 1"
    | _, Some n when n < 1 -> Error "quota max-in-flight must be >= 1"
    | _ -> Ok ()

(* Compact spelling, same key=value;... grammar as the SLO specs:
   [tenant=acme;weight=2;max-queued=16;max-in-flight=4]. Only [tenant=]
   is required (the empty value names the anonymous tenant). *)
let quota_of_string s =
  let ( let* ) = Result.bind in
  let parts = String.split_on_char ';' (String.trim s) in
  let parse_field (tenant, q) part =
    let part = String.trim part in
    if part = "" then Ok (tenant, q)
    else
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "quota: expected key=value, got %S" part)
      | Some i -> (
          let key = String.sub part 0 i in
          let value = String.sub part (i + 1) (String.length part - i - 1) in
          let pos_int field =
            match int_of_string_opt value with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (Printf.sprintf "quota: %s must be an integer >= 1 (got %S)" field value)
          in
          match key with
          | "tenant" -> Ok (Some value, q)
          | "weight" -> (
              match float_of_string_opt value with
              | Some w when w > 0. && Float.is_finite w -> Ok (tenant, { q with weight = w })
              | _ ->
                  Error
                    (Printf.sprintf "quota: weight must be positive and finite (got %S)" value))
          | "max-queued" ->
              let* n = pos_int "max-queued" in
              Ok (tenant, { q with max_queued = Some n })
          | "max-in-flight" ->
              let* n = pos_int "max-in-flight" in
              Ok (tenant, { q with max_in_flight = Some n })
          | other -> Error (Printf.sprintf "quota: unknown key %S" other))
  in
  let* tenant, q =
    List.fold_left
      (fun acc part -> Result.bind acc (fun state -> parse_field state part))
      (Ok (None, default_quota))
      parts
  in
  match tenant with
  | None -> Error "quota: missing tenant= field"
  | Some tenant -> Ok (tenant, q)

let quota_to_string (tenant, q) =
  String.concat ";"
    ([ "tenant=" ^ tenant; Printf.sprintf "weight=%g" q.weight ]
    @ (match q.max_queued with None -> [] | Some n -> [ Printf.sprintf "max-queued=%d" n ])
    @
    match q.max_in_flight with
    | None -> []
    | Some n -> [ Printf.sprintf "max-in-flight=%d" n ])

type 'a entry = {
  item : 'a;
  tenant : string;
  deadline_hours : float option;
  enqueued_at : float;  (** clock seconds at {!offer} *)
}

(* Per-tenant FIFO queues plus a rotation of tenant names ordered by
   each tenant's first waiting arrival, drained by weighted deficit
   round-robin. The capacity bound is on the total across tenants;
   per-tenant quotas bound each tenant's share of it. *)
type 'a t = {
  cap : int;
  quotas : (string, quota) Hashtbl.t;
  queues : (string, 'a entry Queue.t) Hashtbl.t;
  deficits : (string, float ref) Hashtbl.t;
  mutable rotation : string list;
  mutable total : int;
}

let create ~capacity ?(quotas = []) () =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Admission.create: capacity must be >= 1 (got %d)" capacity);
  let table = Hashtbl.create 16 in
  List.iter
    (fun (tenant, q) ->
      match validate_quota q with
      | Ok () -> Hashtbl.replace table tenant q
      | Error m -> invalid_arg ("Admission.create: " ^ m))
    quotas;
  {
    cap = capacity;
    quotas = table;
    queues = Hashtbl.create 16;
    deficits = Hashtbl.create 16;
    rotation = [];
    total = 0;
  }

let capacity t = t.cap
let length t = t.total
let quota t ~tenant = Option.value ~default:default_quota (Hashtbl.find_opt t.quotas tenant)

let tenant_depth t ~tenant =
  match Hashtbl.find_opt t.queues tenant with Some q -> Queue.length q | None -> 0

let offer t ~now ~tenant ?deadline_hours item =
  (match deadline_hours with
  | Some h when not (h > 0.) ->
      invalid_arg (Printf.sprintf "Admission.offer: deadline_hours must be positive (got %g)" h)
  | _ -> ());
  if t.total >= t.cap then Error `Queue_full
  else
    let depth = tenant_depth t ~tenant in
    match (quota t ~tenant).max_queued with
    | Some limit when depth >= limit -> Error (`Quota_exceeded (depth, limit))
    | _ ->
        let q =
          match Hashtbl.find_opt t.queues tenant with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add t.queues tenant q;
              q
        in
        if Queue.is_empty q then t.rotation <- t.rotation @ [ tenant ];
        Queue.push { item; tenant; deadline_hours; enqueued_at = now } q;
        t.total <- t.total + 1;
        Ok ()

type 'a admitted = {
  item : 'a;
  tenant : string;
  admitted_at : float;
  waited_seconds : float;
  remaining_hours : float option;
}

let seconds_per_hour = 3600.

let to_admitted ~now entry =
  let waited_seconds = Float.max 0. (now -. entry.enqueued_at) in
  let remaining_hours =
    Option.map
      (fun budget -> Float.max 0. (budget -. (waited_seconds /. seconds_per_hour)))
      entry.deadline_hours
  in
  {
    item = entry.item;
    tenant = entry.tenant;
    admitted_at = entry.enqueued_at;
    waited_seconds;
    remaining_hours;
  }

let expired ~now entry =
  match entry.deadline_hours with
  | None -> false
  | Some budget -> (now -. entry.enqueued_at) /. seconds_per_hour >= budget

let pop t tenant =
  match Hashtbl.find_opt t.queues tenant with
  | None -> None
  | Some q ->
      if Queue.is_empty q then None
      else begin
        let entry = Queue.pop q in
        t.total <- t.total - 1;
        Some entry
      end

let deficit_ref t tenant =
  match Hashtbl.find_opt t.deficits tenant with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.add t.deficits tenant r;
      r

(* Weighted deficit round-robin: each turn banks the tenant's weight
   into its deficit and dequeues one live item per whole unit, so a
   weight-2 tenant takes two items per pass and a weight-0.5 tenant one
   every other pass. Unit weights reduce to the plain round-robin this
   queue started with. Expired heads are collected on the side and
   consume neither deficit nor the epoch budget. [max_in_flight] caps a
   tenant's items per drain (its epoch concurrency); a capped tenant
   keeps the rest queued and rejoins the rotation behind the uncapped.
   Deficits are cleared when a tenant drains empty and clamped to one
   quantum otherwise, so patience is never banked into a later burst. *)
let drain t ~now ~max =
  let live = ref [] and dead = ref [] and taken = ref 0 in
  let taken_by = Hashtbl.create 8 in
  let taken_of tenant = Option.value ~default:0 (Hashtbl.find_opt taken_by tenant) in
  let rec take_live tenant =
    match pop t tenant with
    | None -> false
    | Some entry ->
        if expired ~now entry then begin
          dead := to_admitted ~now entry :: !dead;
          take_live tenant
        end
        else begin
          live := to_admitted ~now entry :: !live;
          incr taken;
          true
        end
  in
  let has_waiting tenant =
    match Hashtbl.find_opt t.queues tenant with
    | Some q -> not (Queue.is_empty q)
    | None -> false
  in
  let turn tenant =
    let q = quota t ~tenant in
    let deficit = deficit_ref t tenant in
    deficit := !deficit +. q.weight;
    let in_flight_left () =
      match q.max_in_flight with None -> max_int | Some cap -> cap - taken_of tenant
    in
    let drained = ref false in
    while (not !drained) && !deficit >= 1. && !taken < max && in_flight_left () > 0 do
      if take_live tenant then begin
        deficit := !deficit -. 1.;
        Hashtbl.replace taken_by tenant (taken_of tenant + 1)
      end
      else drained := true
    done;
    if not (has_waiting tenant) then begin
      deficit := 0.;
      `Empty
    end
    else begin
      deficit := Float.min !deficit (Float.max q.weight 1.);
      if in_flight_left () <= 0 then `Capped else `More
    end
  in
  let rec go rotation capped =
    match rotation with
    | [] -> List.filter has_waiting (List.rev capped)
    | _ when !taken >= max -> List.filter has_waiting (rotation @ List.rev capped)
    | tenant :: rest -> (
        match turn tenant with
        | `Empty -> go rest capped
        | `Capped -> go rest (tenant :: capped)
        | `More -> go (rest @ [ tenant ]) capped)
  in
  if max > 0 then t.rotation <- go t.rotation [];
  (List.rev !live, List.rev !dead)

(* Remove every queued item regardless of deadline — the drain-timeout
   force-close path. Items come back in enqueue order (then tenant), so
   the forced responses are deterministic. *)
let evict_all t ~now =
  let out = ref [] in
  Hashtbl.iter
    (fun _tenant q ->
      Queue.iter (fun entry -> out := to_admitted ~now entry :: !out) q;
      t.total <- t.total - Queue.length q;
      Queue.clear q)
    t.queues;
  t.rotation <- [];
  Hashtbl.iter (fun _ r -> r := 0.) t.deficits;
  List.sort
    (fun a b ->
      match compare b.waited_seconds a.waited_seconds with
      | 0 -> compare a.tenant b.tenant
      | c -> c)
    !out

