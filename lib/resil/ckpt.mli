(** Versioned, checksummed solver checkpoints — format [kf-ckpt/1].

    A checkpoint file is three header lines followed by a binary
    payload:

    {v
      kf-ckpt/1\n
      <16 hex digits: FNV-1a 64 of the payload>\n
      <decimal payload byte length>\n
      <payload bytes>
    v}

    The payload is a sequence of tagged fields ([name], kind, value);
    floats travel as IEEE-754 bit patterns so a restored solver resumes
    {e bit-exactly}. Writes are atomic (temp file + rename) and
    verified by re-reading before the rename — an injected or real
    truncation is healed by rewriting, never published. Reads fail with
    {!Corrupt} (clear message, no partial state) on version skew,
    length mismatch, or checksum mismatch. *)

type field =
  | Int of int
  | Float of float
  | Str of string
  | Floats of float array
  | Ints of int array

type payload = (string * field) list

type t = { algorithm : string; iteration : int; payload : payload }
(** [algorithm] and [iteration] are ordinary payload fields
    ([ckpt.algorithm], [ckpt.iteration]) lifted out for convenience. *)

exception Corrupt of string

val version : string
(** ["kf-ckpt/1"]. *)

val path_var : string Kf_obs.Env.t
(** [KF_CKPT]: the checkpoint path [kf train] writes when
    [--checkpoint] is absent. *)

val write : path:string -> algorithm:string -> iteration:int -> payload -> unit
(** Atomic, verified write. Raises [Sys_error] on I/O failure and
    {!Corrupt} if the file still fails verification after bounded
    rewrite attempts. *)

val read : path:string -> t
(** Raises {!Corrupt} on any malformed/damaged file, [Sys_error] if
    unreadable. *)

val read_with_checksum : path:string -> t * string
(** {!read} plus the file's verified payload checksum (16 hex digits) —
    the generation fingerprint hot-swap watchers dedup on. *)

(** {2 Field accessors} — raise {!Corrupt} naming the missing or
    mistyped field, so callers surface actionable errors. *)

val get_int : payload -> string -> int
val get_float : payload -> string -> float
val get_str : payload -> string -> string
val get_floats : payload -> string -> float array
val get_ints : payload -> string -> int array
val find : payload -> string -> field option

val checksum_floats : float array -> string
(** FNV-1a 64 over the IEEE-754 bit patterns, as 16 hex digits — the
    CLI's model fingerprint for provable resume equality. *)

val encode : payload -> string
(** The raw payload encoding (exposed for tests). *)

val decode : string -> payload
(** Inverse of {!encode}; raises {!Corrupt} on malformed bytes. *)
