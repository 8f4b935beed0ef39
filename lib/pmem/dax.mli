(** DAX file-space manager.

    The paper's allocators obtain persistent memory by mapping heap files
    that live on a DAX file system, extending them 4 MB at a time, and
    returning regions to the OS when the retained list decays. This module
    plays the role of that file system plus [mmap]/[munmap]: it hands out
    page-aligned regions of the device and accounts for the space in use.

    Peak mapped bytes is the "memory consumption" metric of Figures 1(b),
    13 and 15. *)

type t

val create : ?start:int -> Device.t -> t
(** Manage the device from byte [start] (default 0, page-aligned) to its
    end. Allocators reserve their fixed metadata area below [start]. *)

val decommit : t -> Sim.Clock.t -> addr:int -> size:int -> unit
(** Release the physical pages of a mapped region while keeping its
    address range reserved (MADV_DONTNEED): the bytes leave the space
    accounting, the region cannot be handed out by {!mmap}. This is the
    fate of extents on the retained list (section 2.2). *)

val recommit : t -> Sim.Clock.t -> addr:int -> size:int -> unit
(** Fault the pages of a decommitted region back in. *)

val device : t -> Device.t
val page_size : int

val mmap : t -> Sim.Clock.t -> size:int -> int
(** Map a fresh region of at least [size] bytes (rounded up to pages);
    returns its base address. First-fit over the free region list, which
    models the kernel VMA allocator closely enough for this purpose.
    Raises [Out_of_memory] if the device is exhausted. *)

val reserve : t -> addr:int -> size:int -> unit
(** Take the range [addr, addr+size) (rounded up to pages) out of the
    free list and count it mapped, charging nothing: recovery's way of
    telling a fresh manager about the regions the heap already maps.
    Raises [Invalid_argument] if the range is not wholly free. *)

val munmap : t -> Sim.Clock.t -> ?decommitted:int -> addr:int -> size:int -> unit -> unit
(** Return a region. Adjacent free regions coalesce. An [addr] that is
    not page-aligned raises [Invalid_argument]. [decommitted] bytes of
    the range already left the mapped count via {!decommit} and are not
    subtracted again. *)

val mapped_bytes : t -> int
val peak_mapped_bytes : t -> int
val reset_peak : t -> unit
(** Restart peak tracking from the current usage (used between workload
    phases). *)
