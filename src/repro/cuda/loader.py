"""Program loader: PTX extraction, parsing and symbol registration.

Implements both loader strategies from the paper's Figure 1:

* **Per-file extraction** (the fix, default): each embedded PTX image is
  parsed as its own module; duplicate kernel names across images are
  namespaced by the image they came from, with the first definition
  winning unqualified lookups.
* **Combined extraction** (:attr:`LegacyQuirks.combined_ptx_load`): all
  images are concatenated into a single translation unit first, which
  raises :class:`PTXNameError` on cuDNN-style duplicate definitions —
  the failure the paper describes.
"""

from __future__ import annotations

from repro.errors import CudaError, PTXNameError
from repro.cuda.fatbinary import EmbeddedPTX, FatBinary, cuobjdump
from repro.functional.memory import GlobalMemory, LinearMemory
from repro.ptx.ast import Kernel, PTXModule
from repro.ptx.parser import parse_module
from repro.quirks import FIXED, LegacyQuirks


class LoadedProgram:
    """All modules of one application plus its symbol tables."""

    def __init__(self) -> None:
        self.modules: list[PTXModule] = []
        self.kernels: dict[str, Kernel] = {}
        self.kernels_qualified: dict[str, Kernel] = {}
        self.module_symbols: dict[str, tuple[str, int]] = {}
        self.const_mem = LinearMemory(0)

    def find_kernel(self, name: str) -> Kernel:
        kernel = self.kernels_qualified.get(name) or self.kernels.get(name)
        if kernel is None:
            raise CudaError(
                f"kernel {name!r} not found — is its library statically "
                "linked? (the unmodified loader cannot see PTX inside "
                "dynamically linked libraries)")
        return kernel


class ProgramLoader:
    """Parses extracted PTX and materialises module-scope variables."""

    def __init__(self, global_mem: GlobalMemory,
                 quirks: LegacyQuirks = FIXED, *,
                 allow_brace_init: bool = False) -> None:
        self.global_mem = global_mem
        self.quirks = quirks
        self.allow_brace_init = allow_brace_init

    def load_binary(self, binary: FatBinary) -> LoadedProgram:
        resolve_dynamic = not self.quirks.no_dynamic_library_search
        images = cuobjdump(binary, resolve_dynamic=resolve_dynamic)
        return self.load_images(images)

    def load_images(self, images: list[EmbeddedPTX]) -> LoadedProgram:
        if self.quirks.combined_ptx_load:
            combined = "\n".join(image.text for image in images)
            images = [EmbeddedPTX(file_id="<combined>", text=combined)]
        program = LoadedProgram()
        const_blobs: list[tuple[str, bytes]] = []
        for image in images:
            module = self._parse_image(image, program)
            program.modules.append(module)
            for name, kernel in module.kernels.items():
                qualified = f"{image.file_id}::{name}"
                program.kernels_qualified[qualified] = kernel
                program.kernels.setdefault(name, kernel)
            for name, var in module.global_vars.items():
                addr = self.global_mem.allocate(var.size)
                if var.init is not None:
                    self.global_mem.write(addr, var.init)
                program.module_symbols.setdefault(name, ("global", addr))
            for name, var in module.const_vars.items():
                const_blobs.append((name, var.init or bytes(var.size)))
        offset = 0
        placements: list[tuple[str, int, bytes]] = []
        for name, blob in const_blobs:
            placements.append((name, offset, blob))
            offset += (len(blob) + 7) // 8 * 8
        program.const_mem = LinearMemory(max(offset, 16))
        for name, addr, blob in placements:
            program.const_mem.write(addr, blob)
            program.module_symbols.setdefault(name, ("const", addr))
        return program

    def _parse_image(self, image: EmbeddedPTX,
                     program: LoadedProgram) -> PTXModule:
        del program
        if self.quirks.combined_ptx_load:
            # The combined unit is one namespace, so duplicate entry or
            # variable names collide — GPGPU-Sim's historical failure.
            import re
            names = re.findall(r"\.entry\s+([A-Za-z_$][\w$]*)", image.text)
            duplicates = {n for n in names if names.count(n) > 1}
            if duplicates:
                raise PTXNameError(
                    f"duplicate definition of {sorted(duplicates)[0]!r} in "
                    "combined PTX — extract each embedded file separately")
        return _parse_cached(image.text, image.file_id,
                             self.allow_brace_init)


_PARSE_CACHE: dict[tuple[str, int, bool], PTXModule] = {}


def _parse_cached(text: str, file_id: str,
                  allow_brace_init: bool) -> PTXModule:
    """Memoise parsing — modules are immutable post-parse, and per-kernel
    analysis caches (reconvergence, compiled tiers) are safely shared."""
    key = (file_id, hash(text), allow_brace_init)
    module = _PARSE_CACHE.get(key)
    if module is None:
        module = parse_module(text, file_id,
                              allow_brace_init=allow_brace_init)
        _PARSE_CACHE[key] = module
    return module
