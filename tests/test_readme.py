"""The README's paper-scale quality figures, recomputed on the acceptance
fixture (conftest.py's paper_setup and paper_stego, cover 1101) and
formatted at the precision the README prints them: a change that moves one
fails here until the README states the new figure. Timings and other
machine-dependent figures are labelled as measurements there and are not
checked."""

from pathlib import Path

from sabmis import compare, extract_images, quantize_u8

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
