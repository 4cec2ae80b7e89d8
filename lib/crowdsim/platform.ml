module Rng = Stratrec_util.Rng
module Obs = Stratrec_obs
module Fault = Stratrec_resilience.Fault

type t = { workers : Worker.t array }

let create rng ~population =
  if population <= 0 then invalid_arg "Platform.create: population must be positive";
  { workers = Array.init population (fun id -> Worker.generate rng ~id) }

let population t = Array.length t.workers
let workers t = t.workers

let qualified_pool t rng kind =
  Array.to_list t.workers
  |> List.filter (fun w ->
         Worker.meets_recruitment_filters w kind && Worker.passes_qualification rng w kind)

type recruitment = { hired : Worker.t list; capacity : int; availability : float }

(* One injected fault event: faults.injected_total plus the per-kind
   counter (faults.<kind>_total). *)
let inject metrics kind =
  Obs.Registry.incr (Obs.Registry.counter metrics "faults.injected_total");
  Obs.Registry.incr (Obs.Registry.counter metrics ("faults." ^ kind ^ "_total"))

let recruit ?(metrics = Obs.Registry.noop) ?(faults = Fault.none) t rng ~kind ~window
    ~capacity =
  if capacity <= 0 then invalid_arg "Platform.recruit: capacity must be positive";
  Obs.Registry.incr (Obs.Registry.counter metrics "platform.recruitments_total");
  if not (Fault.is_none faults) then
    (* Register the fault counter so even a lucky faulted run snapshots it. *)
    Obs.Registry.incr_by (Obs.Registry.counter metrics "faults.injected_total") 0;
  let hired =
    if Fault.outage faults ~window:(Window.index window) then begin
      (* Platform down for the whole window: nobody even sees the HIT. *)
      inject metrics "outage";
      []
    end
    else begin
      let pool = qualified_pool t rng kind in
      let pool =
        if faults.Fault.flaky_qualification = 0. then pool
        else
          (* The qualification grader is flaky: some genuinely qualified
             workers are spuriously rejected. *)
          List.filter
            (fun _ ->
              if Rng.bernoulli rng ~p:faults.Fault.flaky_qualification then begin
                inject metrics "flaky_qualification";
                false
              end
              else true)
            pool
      in
      (* A worker undertakes this particular HIT only if (a) they are active in
         the window and (b) they encounter the HIT among everything else posted
         on the platform. The encounter rate is sized so that a HIT posted in
         the busiest window roughly fills its capacity, leaving the x'/x ratio
         sensitive to the window — the effect Fig. 11 measures. *)
      let encounter =
        let pool_size = float_of_int (List.length pool) in
        if pool_size = 0. then 0.
        else Float.min 1. (1.45 *. float_of_int capacity /. pool_size)
      in
      let active =
        List.filter
          (fun w -> Worker.active_in rng w window && Rng.bernoulli rng ~p:encounter)
          pool
      in
      let hired = List.filteri (fun i _ -> i < capacity) active in
      if faults.Fault.no_show = 0. then hired
      else
        (* Accepted the HIT, never showed up. *)
        List.filter
          (fun _ ->
            if Rng.bernoulli rng ~p:faults.Fault.no_show then begin
              inject metrics "no_show";
              false
            end
            else true)
          hired
    end
  in
  let availability =
    Stratrec_model.Availability.observed_ratio ~undertaken:(List.length hired) ~capacity
  in
  Obs.Registry.incr_by
    (Obs.Registry.counter metrics "platform.workers_hired_total")
    (List.length hired);
  Obs.Registry.observe
    (Obs.Registry.histogram ~buckets:Obs.Registry.fraction_buckets metrics
       "platform.availability")
    availability;
  { hired; capacity; availability }
