"""Texture name / texref / cudaArray plumbing (paper Section III-C).

GPGPU-Sim represents textures as a chain:  a texture *name* maps to a
texture *reference* (texref), and a texref maps to a bound cudaArray plus
its textureInfo / textureReferenceAttr metadata.  MNIST broke this twice:

1. It registered **multiple texrefs under the same name**; the old
   one-to-one map lost data and "some texture instructions would fail
   because they could not find the cudaArray they were looking for".
   Fix: map each name to a *set* of texrefs, and additionally map names
   **directly** to their cudaArray/textureInfo/attrs.
2. It called ``cudaBindTextureToArray`` on an already-bound texref; the
   fix assumes an implicit unbind of the previous array first.

Both failure modes are restorable via :class:`LegacyQuirks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CudaError
from repro.functional.memory import CudaArray
from repro.quirks import FIXED, LegacyQuirks


@dataclass
class TextureInfo:
    """cudaChannelFormatDesc-ish metadata."""

    channels: int = 1
    bits_per_channel: int = 32
    kind: str = "float"


@dataclass
class TextureReferenceAttr:
    """Addressing / filtering attributes of a texref."""

    address_mode: str = "clamp"
    filter_mode: str = "point"
    normalized: bool = False


@dataclass
class TextureReference:
    """A texref handle as produced by ``__cudaRegisterTexture``."""

    name: str
    array: CudaArray | None = None
    info: TextureInfo = field(default_factory=TextureInfo)
    attrs: TextureReferenceAttr = field(default_factory=TextureReferenceAttr)

    @property
    def bound(self) -> bool:
        return self.array is not None


class TextureSystem:
    """Owns every registered texref and the name-resolution maps."""

    def __init__(self, quirks: LegacyQuirks = FIXED) -> None:
        self.quirks = quirks
        self._refs_by_name: dict[str, list[TextureReference]] = {}
        # The paper's fix: texture instructions resolve cudaArrays
        # directly by texture *name*.
        self._array_by_name: dict[str, CudaArray] = {}

    # -- __cudaRegisterTexture ------------------------------------------
    def register_texture(self, name: str) -> TextureReference:
        ref = TextureReference(name=name)
        if self.quirks.single_texref_per_name:
            # Historical behaviour: the map holds one texref per name, so
            # re-registration silently discards the previous texref (and
            # with it, any binding reachable through the name).
            self._refs_by_name[name] = [ref]
            self._array_by_name.pop(name, None)
        else:
            self._refs_by_name.setdefault(name, []).append(ref)
        return ref

    # -- cudaBindTextureToArray -----------------------------------------
    def bind_to_array(self, ref: TextureReference, array: CudaArray,
                      info: TextureInfo | None = None,
                      attrs: TextureReferenceAttr | None = None) -> None:
        if ref.bound:
            if self.quirks.rebind_texture_errors:
                raise CudaError(
                    f"texref for {ref.name!r} is already bound; historical "
                    "GPGPU-Sim had no implicit unbind")
            self.unbind(ref)
        ref.array = array
        if info is not None:
            ref.info = info
        if attrs is not None:
            ref.attrs = attrs
        if self._is_current(ref):
            self._array_by_name[ref.name] = array

    def _is_current(self, ref: TextureReference) -> bool:
        """Is *ref* reachable through the name map (not stale)?"""
        return ref in self._refs_by_name.get(ref.name, [])

    # -- unbindTexture ----------------------------------------------------
    def unbind(self, ref: TextureReference) -> None:
        ref.array = None
        if self._array_by_name.get(ref.name) is not None:
            remaining = [r for r in self._refs_by_name.get(ref.name, [])
                         if r.bound and r is not ref]
            if remaining:
                self._array_by_name[ref.name] = remaining[-1].array
            else:
                self._array_by_name.pop(ref.name, None)

    # -- lookup used by the tex instruction ------------------------------
    def lookup(self, name: str) -> CudaArray:
        array = self._array_by_name.get(name)
        if array is None:
            raise CudaError(
                f"no cudaArray bound for texture {name!r} — a texture "
                "instruction could not find the cudaArray it was looking "
                "for (paper Section III-C)")
        return array

    def view(self) -> "TextureView":
        return TextureView(self)


class TextureView:
    """Late-binding name→cudaArray view handed to kernel launches."""

    def __init__(self, system: TextureSystem) -> None:
        self._system = system

    def get(self, name: str) -> CudaArray | None:
        try:
            return self._system.lookup(name)
        except CudaError:
            return None


def snapshot_textures(kernel, bindings) -> dict[str, tuple[int, int, bytes]]:
    """Serialize the cudaArrays *kernel*'s tex instructions name, as
    ``name -> (width, height, texels)``.

    *bindings* may be a plain dict, a :class:`TextureView` or ``None``;
    the first two resolve by name through ``.get``, so the picklable
    snapshot is driven off the texture symbols the kernel body
    references.  Shard transport and the debug tool's captured launch
    both carry textures in this form.
    """
    if bindings is None:
        return {}
    snapshot: dict[str, tuple[int, int, bytes]] = {}
    for inst in kernel.body:
        if inst.opcode != "tex":
            continue
        mem = inst.operands[1]
        if mem.name in snapshot:
            continue
        array = bindings.get(mem.name)
        if array is not None:
            snapshot[mem.name] = (array.width, array.height,
                                  array.download())
    return snapshot
