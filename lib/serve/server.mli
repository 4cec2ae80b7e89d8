(** Transports for the {!Daemon}: a select-based socket server (Unix
    domain or TCP), a stdio driver, and a line-pump client.

    The server is single-threaded by design — the daemon's determinism
    contract is per-epoch, and triage parallelism lives inside the
    epoch ({!Stratrec.Engine.config.domains}) — so connections are
    multiplexed with [select] and lines are handled in arrival order.
    Oversized input (no newline within the daemon's line limit) is
    discarded up to the next newline and answered with a typed error;
    a peer disconnecting mid-epoch only loses its own responses
    (writes to dead peers are dropped, the epoch still runs).

    Writes never block the loop. Every descriptor is non-blocking, and
    each connection has an output queue: during a loop turn every
    response (acks, epoch results routed to any client, oversized-line
    errors) is appended to its connection's queue, and at the end of
    the turn each queue is flushed with non-blocking writes — one
    syscall per connection per turn in the common case. Bytes the
    kernel does not take stay queued and the descriptor joins
    [select]'s write set until they drain. A queue that outgrows 16
    times the daemon's line limit (1 MiB at the default) belongs to a
    peer that is not reading: it is evicted and counted as io-error
    kind ["slow-consumer"], so one such peer cannot stall the others.
    A peer that stops sending is closed once its queue drains.
    [select] cannot watch a descriptor at or beyond FD_SETSIZE, so an
    accepted connection landing there is refused with one typed error
    line, closed, and counted as kind ["fd-limit"].

    The stdio driver feeds the daemon from an [in_channel] — the cram
    tests and [--stdio] mode — and the client pumps stdin lines into a
    serving socket and streams responses back, which is how the smoke
    test drives a real daemon without [nc]/socat in the container. *)

type transport =
  | Unix_socket of string  (** filesystem path (unlinked on shutdown) *)
  | Tcp of string * int  (** bind/connect address and port *)

(** The per-connection line splitter with the oversized-line guard,
    exposed for direct testing: a line that outgrows [max_line] without
    a newline is discarded up to the next newline and counted as a
    drop. The server reports every drop to {!Daemon.note_oversized}
    (the [serve.oversized_lines_total] counter) and answers the peer
    with one typed error per drop. *)
module Lines : sig
  type t

  val create : unit -> t

  val feed : t -> max_line:int -> string -> string list * int
  (** [feed t ~max_line chunk] consumes one received chunk and returns
      the complete lines now available (without newlines) and the
      number of oversized lines discarded. Partial trailing input stays
      buffered for the next feed. *)
end

(** The pluggable byte layer under every socket read and write —
    plain [Unix] calls by default, seeded fault injection for the
    chaos tests. The injected faults exercise exactly the paths a
    hostile network does: [EINTR] must be retried (never treated as a
    peer loss), short writes must resume where they stopped, [EPIPE]
    and mid-line disconnects must drop only that peer, and dribbled
    reads must reassemble into whole lines. *)
module Io : sig
  type t = {
    read : Unix.file_descr -> bytes -> int -> int -> int;
    write : Unix.file_descr -> bytes -> int -> int -> int;
  }

  val default : t
  (** [Unix.read] / [Unix.write], no faults. *)

  (** Independent per-call fault probabilities, each in [\[0, 1\]]. *)
  type faults = {
    partial_write : float;  (** write only half the requested bytes *)
    eintr : float;  (** raise [EINTR] instead of transferring *)
    epipe : float;  (** raise [EPIPE] on write *)
    dribble : float;  (** read one byte at a time (slow-loris) *)
    disconnect : float;  (** read 0 — peer gone mid-line *)
  }

  val no_faults : faults
  (** All probabilities zero — behaves like {!default}. *)

  val faulty : rng:Stratrec_util.Rng.t -> faults -> t
  (** Wrap the default calls with seeded fault injection; the same
      seed replays the same fault schedule. *)
end

val serve : daemon:Daemon.t -> ?io:Io.t -> transport -> (unit, string) result
(** Bind, accept and serve until a [shutdown] command stops the daemon
    (or a fatal socket error). All pending requests are answered before
    the listener closes, and the queued output is flushed first,
    for at most the daemon's drain budget ({!Daemon.drain_timeout}).
    Errors are I/O-level only — protocol problems never end the loop.
    Absorbed transport faults (accept failures, [EPIPE]/[ECONNRESET],
    read/write errors, oversized-line drops, slow-consumer evictions,
    fd-limit refusals) are counted through {!Daemon.note_io_error} as
    [serve.io_errors_total{kind}]; a short write or [EAGAIN] is not a
    fault. [io] (default {!Io.default}) replaces the byte layer — the
    chaos tests inject {!Io.faulty} here. *)

val run_stdio : daemon:Daemon.t -> in_channel -> out_channel -> unit
(** Feed lines from the channel to the daemon (single client 0) until
    EOF or shutdown, writing responses back flushed per line. *)

val pump :
  ?io:Io.t -> Unix.file_descr -> in_channel -> out_channel -> (unit, string) result
(** The client's line pump over an already-connected [fd]: send every
    line from the channel, stream everything received to [out_channel],
    until the peer closes. Retries [EINTR] on both directions and
    resumes partial writes; closes [fd] before returning either way.
    Exposed so tests can drive it over a socketpair with a faulty
    [io]. *)

val client : transport -> in_channel -> out_channel -> (unit, string) result
(** Connect, pump every line from the channel to the server, and copy
    everything the server sends to [out_channel] until the server
    closes the connection (e.g. after answering [shutdown]). *)
