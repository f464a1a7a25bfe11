(** Checkpoint watch/verify for zero-downtime weight hot-swap.

    A step function over a watched [kf-ckpt/1] path, enforcing "old
    weights serve until the new checksum verifies": {!check} stats the
    file, and when the fingerprint (mtime, size, inode) changed, fully
    reads and checksum-verifies it before answering {!Swapped}.  Torn,
    truncated or half-copied files answer {!Rejected} — the previous
    generation keeps serving.  No threads, no sleeps: the serving layer
    owns the polling cadence, tests drive it over hand-made file
    histories. *)

type outcome =
  | Unchanged
  | Swapped of Ckpt.t * string
      (** verified checkpoint plus its payload checksum (16 hex digits)
          — the new generation's fingerprint *)
  | Rejected of string
      (** reason, which names the file; the caller must keep serving
          the old generation *)

type state

val initial : state

val checksum : state -> string option
(** Payload checksum of the last accepted file, if any. *)

val check : state -> path:string -> state * outcome
(** One poll step: a stat, plus one verified read when the fingerprint
    changed.  A file whose payload checksum equals the last accepted
    one dedups to {!Unchanged}; a rejected fingerprint is remembered so
    a bad file is diagnosed once, not re-read every poll. *)
