module Rng = Stratrec_util.Rng
module Params = Stratrec_model.Params
module Obs = Stratrec_obs
module Fault = Stratrec_resilience.Fault

type deployment = {
  task : Task_spec.t;
  combo : Stratrec_model.Dimension.combo;
  window : Window.t;
  capacity : int;
  guided : bool;
}

type result = {
  deployment : deployment;
  availability : float;
  measured : Params.t;
  session : Collaboration.session;
  workers_hired : int;
  dollars_spent : float;
}

let empty_session units =
  {
    Collaboration.edits = [];
    edit_count = 0;
    override_count = 0;
    quality_modifier = 1.;
    elapsed_hours = Window.duration_hours;
    task_units = units;
  }

let inject metrics kind =
  Obs.Registry.incr (Obs.Registry.counter metrics "faults.injected_total");
  Obs.Registry.incr (Obs.Registry.counter metrics ("faults." ^ kind ^ "_total"))

let deploy ?(metrics = Obs.Registry.noop) ?(faults = Fault.none) platform rng d =
  Obs.Registry.incr (Obs.Registry.counter metrics "campaign.hits_deployed_total");
  let { Platform.hired; availability; _ } =
    Platform.recruit ~metrics ~faults platform rng ~kind:d.task.Task_spec.kind
      ~window:d.window ~capacity:d.capacity
  in
  (* Mid-session dropout: hired workers who abandon the HIT before
     contributing. They are unpaid (abandoned HITs are not approved) and
     leave the session to the survivors. *)
  let hired =
    if faults.Fault.dropout = 0. then hired
    else
      List.filter
        (fun _ ->
          if Rng.bernoulli rng ~p:faults.Fault.dropout then begin
            inject metrics "dropout";
            false
          end
          else true)
        hired
  in
  Obs.Registry.incr_by
    (Obs.Registry.counter metrics "campaign.worker_assignments_total")
    (List.length hired);
  match hired with
  | [] ->
      Obs.Registry.incr (Obs.Registry.counter metrics "campaign.empty_deployments_total");
      {
        deployment = d;
        availability;
        measured = Params.make ~quality:0. ~cost:0. ~latency:1.;
        session = empty_session d.task.Task_spec.units;
        workers_hired = 0;
        dollars_spent = 0.;
      }
  | workers ->
      let session =
        Collaboration.simulate rng ~combo:d.combo ~workers ~task:d.task ~guided:d.guided
      in
      let base =
        Outcome.measure rng ~kind:d.task.Task_spec.kind ~combo:d.combo ~availability ()
      in
      (* Harder tasks lose a little quality; edit wars lose more, and the
         rework they cause also delays completion (§5.1.2's observation). *)
      let difficulty_drag = 0.05 *. (d.task.Task_spec.difficulty -. 0.5) in
      let quality =
        Float.max 0.
          (Float.min 1.
             ((base.Params.quality *. session.Collaboration.quality_modifier) -. difficulty_drag))
      in
      let rework_delay =
        (0.12
        *. float_of_int session.Collaboration.override_count
        /. float_of_int (List.length workers))
        +. if d.guided then 0. else 0.08
      in
      let latency = Float.max 0. (Float.min 1. (base.Params.latency +. rework_delay)) in
      let latency =
        (* Straggler fault: the deployment limps far past its expected
           completion (1.0 = the window expired). *)
        if faults.Fault.straggler > 0. && Rng.bernoulli rng ~p:faults.Fault.straggler
        then begin
          inject metrics "straggler";
          Float.min 1. (latency *. faults.Fault.straggler_factor)
        end
        else latency
      in
      let measured = { base with Params.quality; latency } in
      let dollars_spent = Task_spec.pay_per_worker *. float_of_int (List.length workers) in
      Obs.Registry.add
        (Obs.Registry.gauge metrics "campaign.dollars_spent_total")
        dollars_spent;
      Obs.Registry.observe
        (Obs.Registry.histogram ~buckets:Obs.Registry.fraction_buckets metrics
           "campaign.measured_quality")
        quality;
      {
        deployment = d;
        availability;
        measured;
        session;
        workers_hired = List.length workers;
        dollars_spent;
      }

let replicate ?metrics ?faults platform rng d ~times =
  if times <= 0 then invalid_arg "Campaign.replicate: times must be positive";
  List.init times (fun _ -> deploy ?metrics ?faults platform rng d)

let observations results =
  results |> List.map (fun r -> (r.availability, r.measured)) |> Array.of_list
