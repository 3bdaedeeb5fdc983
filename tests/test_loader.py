"""Loader tests: Section III-A's two fixes, exercised both ways."""

import hashlib

import pytest

from repro.cuda import CudaRuntime, FatBinary, cuobjdump
from repro.cuda.loader import ProgramLoader
from repro.cudnn import build_application_binary, build_libcudnn
from repro.errors import CudaError, PTXNameError
from repro.functional.memory import GlobalMemory
from repro.quirks import FIXED, LegacyQuirks

HEADER = ".version 6.0\n.target sm_60\n.address_size 64\n"

KERNEL_A = HEADER + """
.visible .entry helper() { exit; }
.visible .entry alpha() { exit; }
"""
KERNEL_B = HEADER + """
.visible .entry helper() { .reg .b32 %r<1>; mov.u32 %r0, 1; exit; }
.visible .entry beta() { exit; }
"""


def _two_file_library() -> FatBinary:
    lib = FatBinary("libdup.so")
    lib.add_ptx("file_a.cu", KERNEL_A)
    lib.add_ptx("file_b.cu", KERNEL_B)
    return lib


class TestPerFileExtraction:
    def test_duplicate_names_ok_per_file(self):
        loader = ProgramLoader(GlobalMemory(), FIXED)
        program = loader.load_binary(_two_file_library())
        assert "alpha" in program.kernels
        assert "beta" in program.kernels
        assert "helper" in program.kernels
        assert "file_a.cu::helper" in program.kernels_qualified
        assert "file_b.cu::helper" in program.kernels_qualified
        # Unqualified lookup resolves to the first definition.
        assert (program.kernels["helper"]
                is program.kernels_qualified["file_a.cu::helper"])

    def test_combined_mode_fails_on_duplicates(self):
        """GPGPU-Sim's pre-fix behaviour: one concatenated PTX file with
        cuDNN's repeated symbol names breaks the program loader."""
        loader = ProgramLoader(GlobalMemory(),
                               LegacyQuirks(combined_ptx_load=True))
        with pytest.raises(PTXNameError, match="helper"):
            loader.load_binary(_two_file_library())

    def test_combined_mode_ok_without_duplicates(self):
        lib = FatBinary("lib.so")
        lib.add_ptx("only.cu", KERNEL_A)
        loader = ProgramLoader(GlobalMemory(),
                               LegacyQuirks(combined_ptx_load=True))
        program = loader.load_binary(lib)
        assert "alpha" in program.kernels

    def test_real_cudnn_library_has_duplicate_scale_array(self):
        """The shipped libcudnn/libcublas intentionally duplicate
        ``scale_array`` across translation units."""
        binary = build_application_binary()
        loader = ProgramLoader(GlobalMemory(),
                               LegacyQuirks(combined_ptx_load=True))
        with pytest.raises(PTXNameError, match="scale_array"):
            loader.load_binary(binary)


#: (file id, kernels, bytes, SHA-256) of every embedded translation unit,
#: in ``cuobjdump`` order.  The kernel builders are contractually
#: text-stable (docs/ARCHITECTURE.md "Adding a kernel"): plan-cache keys,
#: simulated cycles and every digest downstream hang off this text, so
#: an accidental edit fails here, by file, instead of minutes later in a
#: golden that cannot say which kernel moved.  Regenerate on purpose only.
EMBEDDED_CORPUS = [
    ("elementwise.cu", 13, 10571,
     "1bdec9dca3aec13413d780df3266f91d3b87913a65c0b19e1d349bd1aecf1a6d"),
    ("im2col.cu", 2, 5117,
     "21eaea3610464d3390d10c4b3e95c13a6e322c298d2f064152b2f2e3586fc2de"),
    ("conv_direct.cu", 7, 20352,
     "96ea82f0761c645b90d1e01fcf3438a2c1280ef1324e85627e6a5607c76e524b"),
    ("conv_winograd.cu", 8, 60540,
     "3cc5fd4aa69b4c5d3828f32871d9594f8f1a843fdc54d1535db4485419fd35bd"),
    ("conv_fft.cu", 5, 26606,
     "786572dd2284de44d46d1037c0ce77c053b4bc3d037abf08425c98b05f884ba2"),
    ("pooling.cu", 3, 5065,
     "122c6e7ecf25e6dece3deecbc13fbd591bee2447c0029873773e0028dd2b8ccf"),
    ("lrn.cu", 3, 7103,
     "9a96e73e63c92a6feff196795cf3b48119bc5a3dba487fa8dc468f1ef83fb0d6"),
    ("softmax.cu", 3, 3727,
     "f54f2b0dc6790419517d8c4951c17318aff771c8604feb9e7b1dc65c9a5808a7"),
    ("batchnorm.cu", 4, 6929,
     "324b98330a7f72a63c98a6f51f05e9b238c67ff3b183e4a7b91baf2bb3307b09"),
    ("gemm_kernels.cu", 4, 7204,
     "2f547f15131ebaedee275f37d4942e42e545237e80f7af92a89413ddf28d722a"),
    ("blas_level1.cu", 1, 757,
     "eac836ddcb9848f70ab46c0480ec827389e0e22ac25fc6dc3f03dea72f900a14"),
]
EMBEDDED_CORPUS_SHA256 = (
    "14587b9279414a67a9411379ef6c4b1c36684556325c2f4c124edfa75168dc5d")


class TestEmbeddedCorpusPinned:
    def test_every_translation_unit_is_byte_identical(self):
        images = cuobjdump(build_application_binary())
        combined = hashlib.sha256()
        seen = []
        for image in images:
            text = image.text.encode()
            seen.append((image.file_id, image.text.count(".entry "),
                         len(text), hashlib.sha256(text).hexdigest()))
            combined.update(image.file_id.encode())
            combined.update(text)
        assert seen == EMBEDDED_CORPUS
        assert sum(kernels for _, kernels, _, _ in seen) == 53
        assert combined.hexdigest() == EMBEDDED_CORPUS_SHA256


class TestDynamicLinking:
    def test_cuobjdump_skips_dynamic_libs(self):
        app = FatBinary("app")
        app.link_dynamic(_two_file_library())
        assert cuobjdump(app) == []
        assert len(cuobjdump(app, resolve_dynamic=True)) == 2

    def test_stock_loader_cannot_find_library_kernels(self):
        app = FatBinary("app")
        app.link_dynamic(_two_file_library())
        runtime = CudaRuntime(
            quirks=LegacyQuirks(no_dynamic_library_search=True))
        runtime.load_binary(app)
        with pytest.raises(CudaError, match="statically linked"):
            runtime.launch("alpha", 1, 1, [])

    def test_static_link_remedy(self):
        """The paper's chosen fix: rebuild statically linked."""
        app = FatBinary("app")
        app.link_dynamic(_two_file_library())
        runtime = CudaRuntime(
            quirks=LegacyQuirks(no_dynamic_library_search=True))
        runtime.load_binary(app.static_link())
        runtime.launch("alpha", 1, 1, [])
        runtime.synchronize()

    def test_fixed_loader_resolves_dynamic(self):
        """The ldd-style alternative the paper mentions."""
        app = FatBinary("app")
        app.link_dynamic(_two_file_library())
        runtime = CudaRuntime()  # fixed quirks resolve dynamic libs
        runtime.load_binary(app)
        runtime.launch("beta", 1, 1, [])
        runtime.synchronize()

    def test_static_link_renames_colliding_file_ids(self):
        lib1 = FatBinary("lib1.so")
        lib1.add_ptx("common.cu", KERNEL_A)
        app = FatBinary("app")
        app.add_ptx("common.cu", KERNEL_B)
        app.link_dynamic(lib1)
        merged = app.static_link()
        ids = [image.file_id for image in merged.embedded]
        assert len(ids) == len(set(ids))

    def test_transitive_libraries(self):
        inner = FatBinary("libinner.so")
        inner.add_ptx("inner.cu", KERNEL_A)
        outer = FatBinary("libouter.so")
        outer.link_dynamic(inner)
        app = FatBinary("app")
        app.link_dynamic(outer)
        assert len(cuobjdump(app, resolve_dynamic=True)) == 1

    def test_cudnn_links_cublas(self):
        lib = build_libcudnn()
        assert any(dep.name == "libcublas.so"
                   for dep in lib.dynamic_libs)


class TestModuleVariables:
    def test_global_var_materialised(self):
        ptx = HEADER + """
.global .u32 gcounter = 41;
.visible .entry bump(.param .u64 out) {
    .reg .b32 %r<2>;
    .reg .b64 %rd<2>;
    mov.u64 %rd0, gcounter;
    ld.global.u32 %r0, [%rd0];
    add.s32 %r0, %r0, 1;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r0;
    exit;
}"""
        runtime = CudaRuntime()
        runtime.load_ptx(ptx, "g.cu")
        out = runtime.malloc(4)
        runtime.launch("bump", 1, 1, [out])
        runtime.synchronize()
        assert int.from_bytes(runtime.memcpy_d2h(out, 4), "little") == 42
        addr = runtime.get_symbol_address("gcounter")
        assert runtime.global_mem.read_uint(addr, 4) == 41

    def test_const_memory(self):
        ptx = HEADER + """
.const .f32 cval = 2.5;
.visible .entry rdc(.param .u64 out) {
    .reg .f32 %f<1>;
    .reg .b64 %rd<1>;
    ld.const.f32 %f0, [cval];
    ld.param.u64 %rd0, [out];
    st.global.f32 [%rd0], %f0;
    exit;
}"""
        runtime = CudaRuntime()
        runtime.load_ptx(ptx, "c.cu")
        out = runtime.malloc(4)
        runtime.launch("rdc", 1, 1, [out])
        assert runtime.download_f32(out, 1)[0] == 2.5
