#include "tensor/layout.hh"

#include <algorithm>

namespace spg {

void
transpose2d(const float *src, std::int64_t rows, std::int64_t cols,
            float *dst)
{
    // Block the transpose to keep both streams cache-resident.
    constexpr std::int64_t kBlock = 32;
    for (std::int64_t ib = 0; ib < rows; ib += kBlock) {
        std::int64_t imax = std::min(ib + kBlock, rows);
        for (std::int64_t jb = 0; jb < cols; jb += kBlock) {
            std::int64_t jmax = std::min(jb + kBlock, cols);
            for (std::int64_t i = ib; i < imax; ++i)
                for (std::int64_t j = jb; j < jmax; ++j)
                    dst[j * rows + i] = src[i * cols + j];
        }
    }
}

void
permute4(const float *src, const std::array<std::int64_t, 4> &src_shape,
         const std::array<int, 4> &perm, float *dst)
{
    bool seen[4] = {false, false, false, false};
    for (int p : perm) {
        if (p < 0 || p > 3 || seen[p])
            panic("permute4: invalid permutation");
        seen[p] = true;
    }

    std::array<std::int64_t, 4> dst_shape;
    for (int i = 0; i < 4; ++i)
        dst_shape[i] = src_shape[perm[i]];

    std::array<std::int64_t, 4> src_stride;
    src_stride[3] = 1;
    for (int i = 2; i >= 0; --i)
        src_stride[i] = src_stride[i + 1] * src_shape[i + 1];

    std::int64_t out = 0;
    for (std::int64_t a = 0; a < dst_shape[0]; ++a)
        for (std::int64_t b = 0; b < dst_shape[1]; ++b)
            for (std::int64_t c = 0; c < dst_shape[2]; ++c)
                for (std::int64_t d = 0; d < dst_shape[3]; ++d) {
                    std::int64_t idx = a * src_stride[perm[0]] +
                                       b * src_stride[perm[1]] +
                                       c * src_stride[perm[2]] +
                                       d * src_stride[perm[3]];
                    dst[out++] = src[idx];
                }
}

void
chwToHwc(const float *src, std::int64_t c, std::int64_t h, std::int64_t w,
         float *dst)
{
    // dst[y][x][ch] = src[ch][y][x]; iterate destination-contiguously
    // over small channel counts, source-contiguously otherwise.
    for (std::int64_t ch = 0; ch < c; ++ch) {
        const float *plane = src + ch * h * w;
        float *out = dst + ch;
        for (std::int64_t i = 0; i < h * w; ++i)
            out[i * c] = plane[i];
    }
}

void
hwcToChw(const float *src, std::int64_t h, std::int64_t w, std::int64_t c,
         float *dst)
{
    for (std::int64_t ch = 0; ch < c; ++ch) {
        const float *in = src + ch;
        float *plane = dst + ch * h * w;
        for (std::int64_t i = 0; i < h * w; ++i)
            plane[i] = in[i * c];
    }
}

void
weightsToKkfc(const float *src, std::int64_t nf, std::int64_t nc,
              std::int64_t fy, std::int64_t fx, float *dst)
{
    for (std::int64_t f = 0; f < nf; ++f)
        for (std::int64_t c = 0; c < nc; ++c)
            for (std::int64_t ky = 0; ky < fy; ++ky)
                for (std::int64_t kx = 0; kx < fx; ++kx) {
                    std::int64_t s = ((f * nc + c) * fy + ky) * fx + kx;
                    std::int64_t d = ((ky * fx + kx) * nf + f) * nc + c;
                    dst[d] = src[s];
                }
}

void
weightsFromKkfc(const float *src, std::int64_t fy, std::int64_t fx,
                std::int64_t nf, std::int64_t nc, float *dst)
{
    for (std::int64_t ky = 0; ky < fy; ++ky)
        for (std::int64_t kx = 0; kx < fx; ++kx)
            for (std::int64_t f = 0; f < nf; ++f)
                for (std::int64_t c = 0; c < nc; ++c) {
                    std::int64_t s = ((ky * fx + kx) * nf + f) * nc + c;
                    std::int64_t d = ((f * nc + c) * fy + ky) * fx + kx;
                    dst[d] = src[s];
                }
}

} // namespace spg
