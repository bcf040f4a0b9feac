"""Capacity versus imperceptibility.

Each extra secret claims one more parity sub-image, so the stego PSNR falls
as the payload grows from 2 to 8 bits per cover pixel. With one secret, a
wrong seed that derives another assignment reads noise, not the secret.
With more, that protection is gone: any key with the same params reads each
carried secret's DC and low coefficients, and the seed decides only their
order and the mid coefficients (README, "Security model").
"""

from sabmis import (StegoParams, compare, cover_raster, embed_images,
                    extract_images, make_key, ncc, quantize_u8, secret_raster)

cover = cover_raster(256, seed=12)
secrets = [secret_raster(128, seed=40 + i) for i in range(4)]

print("secrets  capacity  psnr(dB)  mssim    nae")
for count in (1, 2, 3, 4):
    params = StegoParams(N=256, M=128, num_secrets=count)
    key = make_key(seed=777, params=params)
    stego, report = embed_images(cover, secrets[:count], key)
    q = compare(cover, stego)
    print(f"   {count}       {report.capacity_bpp} bpp   {q.psnr_db:7.2f}  "
          f"{q.mssim:.4f}  {q.nae:.4f}")

# blindness: extraction needs only the stego image and the right key
params = StegoParams(N=256, M=128, num_secrets=1)
key = make_key(seed=777, params=params)
stego, _ = embed_images(cover, secrets[:1], key)
good = extract_images(stego, key)[0]
# a wrong seed also derives a wrong sub-image assignment, so the extractor
# reads an untouched sub-image and gets amplified cover noise
wrong_seed = next(s for s in range(778, 800)
                  if make_key(s, params).assignment != key.assignment)
bad = extract_images(stego, make_key(wrong_seed, params))[0]
print("\nextraction ncc with the right key:",
      f"{ncc(quantize_u8(secrets[0]), quantize_u8(good)):.4f}")
print("extraction ncc with a wrong seed: ",
      f"{ncc(quantize_u8(secrets[0]), quantize_u8(bad)):.4f}")
