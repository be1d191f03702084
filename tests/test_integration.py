"""Cross-module integration scenarios.

Each test strings several subsystems together the way a downstream user
would: datasets -> analyzer -> pipeline -> container -> files, or
simulation -> checkpoints -> restart, or linearization -> pipeline.
"""

import numpy as np
import pytest

from repro import (
    IsobarCompressor,
    IsobarConfig,
    Preference,
    analyze,
    compress,
    decompress,
)
from repro.codecs import FpcCodec, FpzipLikeCodec
from repro.datasets import (
    dataset_names,
    generate_dataset,
    load_raw,
    save_raw,
    stream_raw_chunks,
)
from repro.insitu import CheckpointStore, FieldSimulation, SimulationConfig
from repro.linearization import apply_order, invert_permutation, ordering_indices


@pytest.mark.parametrize("name", dataset_names())
def test_every_registry_dataset_roundtrips(name):
    """The whole 24-dataset suite survives the full pipeline bit-exactly."""
    values = generate_dataset(name, n_elements=20_000)
    config = IsobarConfig(sample_elements=4096)
    compressor = IsobarCompressor(config)
    restored = compressor.decompress(compressor.compress(values))
    width = values.dtype.itemsize
    assert restored.dtype == values.dtype
    assert np.array_equal(
        restored.view(f"u{width}"), values.view(f"u{width}")
    )


def test_file_based_chunked_workflow(tmp_path):
    """Stream a dataset file chunk-by-chunk through independent containers."""
    values = generate_dataset("flash_velx", n_elements=60_000)
    source = tmp_path / "flash.rds"
    save_raw(source, values)

    compressor = IsobarCompressor(IsobarConfig(sample_elements=4096))
    containers = [
        compressor.compress(chunk)
        for chunk in stream_raw_chunks(source, chunk_elements=25_000)
    ]
    assert len(containers) == 3

    restored = np.concatenate(
        [compressor.decompress(blob) for blob in containers]
    )
    assert np.array_equal(restored, values)

    total_compressed = sum(len(blob) for blob in containers)
    assert total_compressed < values.nbytes  # net win despite 3 headers


def test_simulation_to_checkpoint_to_restart(tmp_path):
    """The in-situ loop: simulate, checkpoint with ISOBAR, restart."""
    sim = FieldSimulation(SimulationConfig(n_elements=30_000, seed=99))
    store = CheckpointStore(
        tmp_path, config=IsobarConfig(preference=Preference.SPEED,
                                      sample_elements=4096)
    )
    fields = {}
    for step in range(6):
        field = sim.step()
        fields[step] = field
        if step % 2 == 0:
            store.write(step, {"phi": field})

    assert store.steps() == [0, 2, 4]
    for step in store.steps():
        assert np.array_equal(store.read(step, "phi"), fields[step])


def test_linearized_stream_compression_and_exact_restore():
    """Hilbert-linearize a 2-D field, compress, restore, de-linearize."""
    field = generate_dataset("gts_phi_l", n_elements=40_000).reshape(200, 200)
    perm = ordering_indices("hilbert", field.shape)
    stream = apply_order(field, perm)

    payload = compress(stream, preference="speed")
    restored_stream = decompress(payload)
    restored_field = restored_stream[invert_permutation(perm)].reshape(
        field.shape
    )
    assert np.array_equal(restored_field, field)


def test_analyzer_verdict_consistent_between_chunks_and_whole():
    """Chunked analysis agrees with whole-array analysis on stable data."""
    # Chunks of 30k: below ~25k elements the tau=1.42 threshold sits
    # inside the noise-histogram tail and verdicts can flicker — the
    # instability Figure 8 documents and the 375k default avoids.
    values = generate_dataset("num_brain", n_elements=90_000)
    whole = analyze(values)
    for start in range(0, 90_000, 30_000):
        chunk_verdict = analyze(values[start:start + 30_000])
        assert np.array_equal(chunk_verdict.mask, whole.mask)


def test_isobar_container_vs_specialised_codecs():
    """All three compressor families round-trip the same dataset."""
    values = generate_dataset("gts_chkp_zeon", n_elements=20_000)

    payload = compress(values)
    assert np.array_equal(decompress(payload), values)

    fpc = FpcCodec()
    assert np.array_equal(fpc.decode(fpc.encode(values)), values)

    fpzip = FpzipLikeCodec()
    assert np.array_equal(fpzip.decode(fpzip.encode(values)), values)

    # ISOBAR's ratio on this HTC dataset beats FPC's (Table X shape).
    isobar_ratio = values.nbytes / len(payload)
    fpc_ratio = values.nbytes / len(fpc.encode(values))
    assert isobar_ratio > fpc_ratio


def test_cross_dtype_container_compatibility(tmp_path):
    """Containers written for different dtypes coexist and restore."""
    compressor = IsobarCompressor(IsobarConfig(sample_elements=2048))
    arrays = {
        "doubles": generate_dataset("gts_phi_l", n_elements=10_000),
        "floats": generate_dataset("s3d_temp", n_elements=10_000),
        "ints": generate_dataset("xgc_igid", n_elements=10_000),
    }
    blobs = {k: compressor.compress(v) for k, v in arrays.items()}
    for key, blob in blobs.items():
        restored = compressor.decompress(blob)
        assert restored.dtype == arrays[key].dtype
        width = restored.dtype.itemsize
        assert np.array_equal(
            restored.view(f"u{width}"), arrays[key].view(f"u{width}")
        )


def test_decompression_needs_no_configuration():
    """Containers are self-describing: a default compressor reads any."""
    values = generate_dataset("obs_temp", n_elements=20_000)
    writer = IsobarCompressor(IsobarConfig(
        preference="speed", codec="bzip2", linearization="column",
        chunk_elements=7_000, sample_elements=2048,
    ))
    payload = writer.compress(values)
    reader = IsobarCompressor()  # entirely default configuration
    assert np.array_equal(reader.decompress(payload), values)
