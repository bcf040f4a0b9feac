"""The README's paper-scale quality figures, recomputed on the acceptance
fixture (conftest.py's paper_setup, paper_stego and paper_l1_stego, cover
1101) and formatted at the precision the README prints them: a change that
moves one fails here until the README states the new figure. A figure that
the BLAS kernel family moves at that precision is stated, and checked, as a
bound. Timings, the near-square key's solver figures and other
machine-dependent figures are labelled as measurements there and are not
checked."""

from pathlib import Path

import numpy as np

from sabmis import (coeffs_to_raster, compare, extract_images, make_key, ncc, psnr, quantize_u8,
                    secret_to_coeffs)

# the README's text with every run of whitespace, line breaks included, as one space
README = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())


def _psnr_span(secrets, extracted):
    values = [compare(secret, got).psnr_db for secret, got in zip(secrets, extracted, strict=True)]
    return f"{min(values):.2f}-{max(values):.2f} dB"


def _channel_errors(secrets, extracted, p):
    # per channel, each secret's ||extracted - secret|| / ||secret|| over the
    # channel's zig-zag coefficients: alpha is coefficient 0, beta 1..c-1,
    # gamma c..p3-1
    channels = (slice(0, 1), slice(1, p.c), slice(p.c, p.p3))
    want = [secret_to_coeffs(secret, p) for secret in secrets]
    got = [secret_to_coeffs(raster, p) for raster in extracted]
    return [[np.linalg.norm(g[:, c] - w[:, c]) / np.linalg.norm(w[:, c]) for w, g in zip(want, got)]
            for c in channels]


def _span(errors, spec=".1e", unit=""):
    return f"{min(errors):{spec}}{unit} to {max(errors):{spec}}{unit}"


def test_readme_states_the_extraction_psnr(paper_setup, paper_stego):
    key, _, secrets = paper_setup
    stego = paper_stego[0][0]
    float_path = _psnr_span(secrets, extract_images(stego, key))
    eight_bit = _psnr_span(secrets, extract_images(quantize_u8(stego), key))
    for phrase in (f"extraction PSNR is {float_path}", f"from {float_path} to {eight_bit}",
                   f"against {float_path} with the right key",
                   f"against {eight_bit} with the right key"):
        assert phrase in README
    # each secret's own p3-coefficient low-pass has the float path's PSNR
    p = key.params
    low_pass = []
    for secret in secrets:
        t = secret_to_coeffs(secret, p)
        t[:, p.p3:] = 0.0
        low_pass.append(coeffs_to_raster(t, p))
    assert _psnr_span(secrets, low_pass) == float_path
    assert f"extraction PSNR is {float_path}, exactly that of each secret's own" in README


def test_readme_states_the_per_channel_errors(paper_setup, paper_stego):
    # the float path's figures sit at rounding level: beta's and gamma's
    # spans are the same at the printed precision under the SkylakeX,
    # Haswell, Sandybridge and Prescott kernels, while alpha's reads 2.9e-15
    # to 3.5e-15 across them, so the README states a bound for it
    key, _, secrets = paper_setup
    stego, p = paper_stego[0][0], key.params
    alpha, beta, gamma = _channel_errors(secrets, extract_images(stego, key), p)
    assert max(alpha) < 4e-15
    assert (f"are under 4e-15 (alpha; its last digit moves with the BLAS kernels), "
            f"{_span(beta)} (beta) and {_span(gamma)} (gamma)") in README
    alpha, beta, gamma = _channel_errors(secrets, extract_images(quantize_u8(stego), key), p)
    percent = [100 * error for error in alpha]
    assert (f"the DC coefficients come back with {_span(percent, '.1f', '%')} relative error, "
            f"the low ones with {_span(beta, '.2f')} and the mid ones with "
            f"{_span(gamma, '.1f')}") in README


def test_readme_states_what_wrong_seeds_with_another_assignment_read(paper_setup, paper_stego):
    # every seed 1-40 derives another assignment than 0xC0FFEE's, and each of
    # its four extracted images is one of the secrets, by NCC on 8-bit views
    key, _, secrets = paper_setup
    stego = paper_stego[0][0]
    spans = []
    for view in (stego, quantize_u8(stego)):
        matched = []
        for seed in range(1, 41):
            wrong = make_key(seed, key.params)
            assert wrong.assignment != key.assignment
            for got in map(quantize_u8, extract_images(view, wrong)):
                best = max(secrets, key=lambda secret: ncc(secret, got))
                if ncc(best, got) > 0.99:
                    matched.append(psnr(best, got))
        assert len(matched) == 160
        spans.append(f"{min(matched):.2f}-{max(matched):.2f} dB")
    assert ("every one of seeds 1-40 that derives another assignment read all four secrets "
            "in another order: 160 of 160 extracted images matched a secret with NCC > 0.99, "
            f"at {spans[0]} from the float stego against") in README
    assert f"and at {spans[1]} from the 8-bit stego against" in README


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
    extracted = extract_images(stego, key)
    gamma = _channel_errors(secrets, extracted, key.params)[2]
    assert f"returned them with relative error {_span(gamma, '.1f')}, worse than" in README
    assert (f"reached {_psnr_span(secrets, extracted)}. Its stego read "
            f"{report.psnr_db:.2f} dB and MSSIM {report.mssim:.4f} on the 8-bit view") in README
    assert converged.all()
    assert (f"every row converges in {iterations.mean():.1f} ADMM iterations on average "
            f"(median {np.median(iterations):.0f}, 99th percentile "
            f"{np.percentile(iterations, 99):.0f}, at most {iterations.max()})") in README
