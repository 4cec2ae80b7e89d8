type t = { registry : Registry.t; name : string; started : float }

(* Disabled spans share one static value: no allocation, and crucially no
   clock read — the noop path must stay zero-cost. *)
let dummy = { registry = Registry.noop; name = ""; started = 0. }

let start registry name =
  if Registry.enabled registry then { registry; name; started = Registry.now registry }
  else dummy

let observe registry name elapsed =
  if Registry.enabled registry then begin
    (* The default clock is monotone, but an injected one may step
       backwards; surface that instead of hiding it in the clamp. *)
    if elapsed < 0. then
      Registry.incr (Registry.counter registry "trace.clock_regressions_total");
    Registry.observe (Registry.histogram registry name) (Float.max 0. elapsed)
  end

let finish t =
  if not (Registry.enabled t.registry) then 0.
  else begin
    (* Boxed once: the histogram and the caller get the same float. *)
    let elapsed = Sys.opaque_identity (Registry.now t.registry -. t.started) in
    observe t.registry t.name elapsed;
    Float.max 0. elapsed
  end

let time registry name f =
  let span = start registry name in
  match f () with
  | value ->
      ignore (finish span);
      value
  | exception exn ->
      ignore (finish span);
      raise exn
