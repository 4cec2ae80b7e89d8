type config = {
  saturation_high : float;
  saturation_low : float;
  p99_high : float;
  p99_low : float;
}

let default = { saturation_high = 0.85; saturation_low = 0.5; p99_high = 0.; p99_low = 0. }

(* The daemon gives rungs 1 to 3 their effects; there is no rung 4. *)
let top_rung = 3

let validate config =
  let { saturation_high; saturation_low; p99_high; p99_low } = config in
  if not (saturation_high > 0. && saturation_high <= 1.) then
    Error "brownout saturation_high must be in (0, 1]"
  else if not (saturation_low >= 0. && saturation_low < saturation_high) then
    Error "brownout saturation_low must be in [0, saturation_high)"
  else if p99_high < 0. then Error "brownout p99_high must be non-negative"
  else if not (p99_low >= 0. && (p99_high = 0. || p99_low < p99_high)) then
    Error "brownout p99_low must be in [0, p99_high)"
  else Ok ()

type t = { config : config; mutable rung : int }

let create config =
  match validate config with Error _ as e -> e | Ok () -> Ok { config; rung = 0 }

let rung t = t.rung

type transition =
  | Steady
  | Escalated of { from_ : int; to_ : int; reason : string }
  | Recovered of { from_ : int; to_ : int }

(* One rung per evaluation in either direction, with hysteresis: the
   recovery thresholds sit strictly below the escalation ones, so a
   signal hovering at the boundary cannot make the ladder oscillate. *)
let evaluate t ~saturation ~p99 =
  let c = t.config in
  let p99_pressed = c.p99_high > 0. && p99 >= c.p99_high in
  let saturated = saturation >= c.saturation_high in
  if (saturated || p99_pressed) && t.rung < top_rung then begin
    let from_ = t.rung in
    t.rung <- t.rung + 1;
    Escalated
      {
        from_;
        to_ = t.rung;
        reason = (if saturated then "queue-saturation" else "window-p99");
      }
  end
  else if
    t.rung > 0
    && saturation <= c.saturation_low
    && (c.p99_high = 0. || p99 <= c.p99_low)
  then begin
    let from_ = t.rung in
    t.rung <- t.rung - 1;
    Recovered { from_; to_ = t.rung }
  end
  else Steady
