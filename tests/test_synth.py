import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from sabmis import DimensionError, cover_raster
from sabmis.synth import _smooth


# (20, 30) and (7, 3) have a kernel radius (120 and 12) larger than the side
@pytest.mark.parametrize("side, sigma", [(512, 12.0), (512, 4.0), (256, 1.0), (128, 10.0),
                                         (64, 10 / 3), (20, 30.0), (7, 3.0), (33, 1.5),
                                         (100, 2.5)])
def test_smooth_equals_scipys_periodic_gaussian_bitwise(side, sigma):
    x = np.random.default_rng(side).standard_normal((side, side))
    got = _smooth(x, sigma)
    assert np.array_equal(got, gaussian_filter(x, sigma, mode="wrap"))
    # the rasters take a mean and std of it, which sum in memory order
    assert got.flags.c_contiguous


def test_cover_raster_refuses_an_odd_side():
    # a cover is a half-resolution field replicated 2x
    with pytest.raises(DimensionError, match="cover side must be even, got 5"):
        cover_raster(5, 1)
