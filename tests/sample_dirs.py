"""Sample directories read back into memory, for the test oracles."""

from metaseg import raster


def loaded_samples(in_dir):
    """The samples of `raster.iter_sample_files(in_dir)`, in id order,
    each with its probability map loaded, one at a time."""
    return (
        raster.Sample(f.id, raster.load_probability_map(f.path), f.mask)
        for f in raster.iter_sample_files(in_dir)
    )
