"""Blind multi-image steganography toolkit.

Hides up to four gray-scale secret images inside one cover image by
transplanting secret DCT coefficients into keyed linear measurements of the
cover's sparsified blocks, writing the stego image in closed form so that
those measurements read the transplant exactly, and extracting the secrets
again from the stego image and the key alone. The paper's l1 rebuild of each
block stays available per block (`embed_rule`, then `reconstruct_block`).
"""

from .codec import (EmbedReport, SubImageStats, coeffs_to_raster, embed_images,
                    embed_rule, embed_subsets, extract_images, extract_rule,
                    reconstruct_block, rule_index_sets, secret_to_coeffs)
from .errors import (DimensionError, FormatError, ParamError, SabmisError,
                     SolverError)
from .measure import (StegoKey, StegoParams, derive_assignment, gen_matrix,
                      keyed_normals, make_key, measure, read_key, write_key)
from .metrics import (MetricsReport, compare, edge_map, entropy, mssim, nae, ncc,
                      psnr)
from .raster import (Raster, inverse_subsample, quantize_u8, read_pgm, read_srf, subsample,
                     write_pgm, write_srf)
from .solver import SolverResult, default_lambda, soft_threshold, solve_lasso
from .spectral import (assemble_blocks, desparsify, make_dct_basis, make_zigzag,
                       partition_blocks, sparsify)
from .synth import block_sparse_raster, cover_raster, secret_raster, textured_raster

__version__ = "0.1.0"
