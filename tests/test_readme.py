"""The README's paper-scale quality figures, recomputed on the acceptance
fixture (conftest.py's paper_setup, paper_stego and paper_l1_stego, cover
1101) and formatted at the precision the README prints them: a change that
moves one fails here until the README states the new figure. Timings, the
near-square key's solver figures and other machine-dependent figures are
labelled as measurements there and are not checked."""

from pathlib import Path

import numpy as np

from sabmis import compare, extract_images, make_key, quantize_u8

# the README's text with every run of whitespace, line breaks included, as one space
README = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())


def _psnr_span(secrets, extracted):
    psnr = [compare(secret, got).psnr_db for secret, got in zip(secrets, extracted, strict=True)]
    return f"{min(psnr):.2f}-{max(psnr):.2f} dB"


def test_readme_states_the_extraction_psnr(paper_setup, paper_stego):
    key, _, secrets = paper_setup
    stego = paper_stego[0][0]
    float_path = _psnr_span(secrets, extract_images(stego, key))
    eight_bit = _psnr_span(secrets, extract_images(quantize_u8(stego), key))
    for phrase in (f"extraction PSNR is {float_path}", f"from {float_path} to {eight_bit}",
                   f"against {float_path} with the right key",
                   f"against {eight_bit} with the right key"):
        assert phrase in README


def test_readme_states_the_stego_figures(paper_setup, paper_stego):
    _, (cover, _), _ = paper_setup
    stego = paper_stego[0][0]
    report = compare(cover, stego)
    assert f"reads {report.psnr_db:.2f} dB and {report.mssim:.4f}" in README
    assert f"the float stego spans {stego.pixels.min():.1f} to {stego.pixels.max():.1f}" in README


def test_readme_states_the_write_check(paper_stego):
    check = paper_stego[0][1].write_check
    assert check["identity_error"] < 1e-14
    assert (f"the condition reads {check['condition']:.2f} and the identity error is "
            f"rounding-sized, under 1e-14") in README


def test_readme_states_what_a_wrong_seed_with_the_same_assignment_reads(paper_setup, paper_stego):
    key, _, secrets = paper_setup
    wrong = make_key(68, key.params)
    assert wrong.assignment == key.assignment
    extracted = extract_images(paper_stego[0][0], wrong)
    ncc = {f"{compare(secret, got).ncc:.4f}" for secret, got in zip(secrets, extracted)}
    assert len(ncc) == 1
    assert (f"seed 68 derives {wrong.assignment}, like 0xC0FFEE, and on the float stego at "
            f"paper scale extracts with NCC {ncc.pop()} and PSNR "
            f"{_psnr_span(secrets, extracted)}") in README


def test_readme_states_the_paper_l1_embed_figures(paper_setup, paper_l1_stego):
    key, (cover, _), secrets = paper_setup
    stego, iterations, converged = paper_l1_stego
    report = compare(cover, stego)
    assert (f"reached {_psnr_span(secrets, extract_images(stego, key))}. Its stego read "
            f"{report.psnr_db:.2f} dB and MSSIM {report.mssim:.4f} on the 8-bit view") in README
    assert converged.all()
    assert (f"every row converges in {iterations.mean():.1f} ADMM iterations on average "
            f"(median {np.median(iterations):.0f}, 99th percentile "
            f"{np.percentile(iterations, 99):.0f}, at most {iterations.max()})") in README
