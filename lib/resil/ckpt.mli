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
    {e bit-exactly}. Writes are atomic (temp file + rename): the file
    is rendered into one buffer, hashed once, and the temp file's bytes
    are read back and compared with that buffer before the rename — an
    injected or real truncation, or any other differing byte, is healed
    by rewriting, never published. Reads fail with
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
(** Atomic, verified write: the temp file must read back byte for byte
    as rendered, or it is rewritten (at most 3 attempts, each counted in
    [resil.ckpt_rewrites]). Raises [Sys_error] on I/O failure and
    {!Corrupt} if the file still fails verification after the last
    attempt. *)

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

val fnv1a64 : string -> pos:int -> len:int -> int64
(** FNV-1a 64 of [len] bytes of the string from [pos]: the checksum of
    checkpoint files and [Kf_dist.Wire] frames. *)

val checksum_floats : float array -> string
(** FNV-1a 64 over the little-endian IEEE-754 bit patterns, as 16 hex
    digits — the CLI's model fingerprint for provable resume
    equality. *)

val encoded_size : payload -> int
(** Byte length of the payload encoding. Raises [Invalid_argument] on a
    field name longer than 65535 bytes. *)

val encode : payload -> string
(** The raw payload encoding (exposed for tests). *)

val encode_framed : header:int -> trailer:int -> payload -> Bytes.t * int64
(** [encode_framed ~header ~trailer p] is [(b, h)]: a fresh buffer of
    [header + encoded_size p + trailer] bytes with the encoding of [p]
    at offset [header], and [h] the {!fnv1a64} of the encoded bytes.
    The caller fills the first [header] and last [trailer] bytes — how
    checkpoint files and wire frames are built without a copy. *)

val decode : ?pos:int -> ?len:int -> string -> payload
(** Inverse of {!encode}, over [len] bytes from [pos] (default: the
    whole string). Raises {!Corrupt} on malformed bytes, before
    allocating for any count the bytes cannot back, and
    [Invalid_argument] if the range lies outside the string. *)
