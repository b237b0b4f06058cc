#include "conv/packed_weights.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/timer.hh"

namespace spg {

namespace {

/** Entries are few (one or two per conv layer per phase); past this
 *  something is leaking keys, so start over rather than grow. */
constexpr std::size_t kMaxEntries = 64;

} // namespace

PackedWeightCache &
PackedWeightCache::global()
{
    static PackedWeightCache cache;
    return cache;
}

std::shared_ptr<const PackedMatrix>
PackedWeightCache::getA(const float *w, Trans ta, std::int64_t m,
                        std::int64_t k)
{
    Key key{w, ta, m, k};
    std::uint64_t fp = contentHash(w, sizeof(float) * m * k);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.fingerprint == fp) {
            obs::Metrics::global()
                .counter("packed_weights.hits")
                .add();
            return it->second.packed;
        }
    }

    obs::Metrics::global().counter("packed_weights.packs").add();
    SPG_TRACE_SCOPE_NN("gemm", "pack weights", "m", m, "k", k);
    std::int64_t lda = ta == Trans::No ? k : m;
    auto packed = std::make_shared<const PackedMatrix>(
        PackedMatrix::packA(ta, m, k, 1.0f, w, lda));

    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= kMaxEntries)
        entries_.clear();
    entries_[key] = Entry{fp, packed};
    return packed;
}

std::shared_ptr<const SparseWeightPlan>
PackedWeightCache::getSparseConv(const float *w, const ConvSpec &spec)
{
    SparseKey key{w, spec.nf, spec.nc, spec.fy, spec.fx,
                  spec.ny, spec.nx};
    std::uint64_t fp = contentHash(w, sizeof(float) * spec.weightElems());
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sparse_entries_.find(key);
        if (it != sparse_entries_.end() &&
            it->second.fingerprint == fp) {
            ++sparse_stats_.hits;
            obs::Metrics::global()
                .counter("packed_weights.sparse_hits")
                .add();
            return it->second.plan;
        }
    }

    obs::Metrics::global()
        .counter("packed_weights.sparse_encodes")
        .add();
    SPG_TRACE_SCOPE_NN("sparse", "encode sparse weights", "nf",
                       spec.nf, "taps", spec.nc * spec.fy * spec.fx);
    Stopwatch watch;
    auto plan = std::make_shared<SparseWeightPlan>();
    plan->nf = spec.nf;
    plan->taps = spec.nc * spec.fy * spec.fx;
    plan->csr = CsrMatrix::fromDense(w, plan->nf, plan->taps);
    plan->weight_sparsity = plan->csr.sparsity();
    plan->in_off.resize(static_cast<std::size_t>(plan->nnz()));
    const auto &cidx = plan->csr.colIdx();
    for (std::size_t p = 0; p < cidx.size(); ++p) {
        std::int64_t tap = cidx[p];
        std::int64_t c = tap / (spec.fy * spec.fx);
        std::int64_t ky = tap / spec.fx % spec.fy;
        std::int64_t kx = tap % spec.fx;
        plan->in_off[p] = c * spec.ny * spec.nx + ky * spec.nx + kx;
    }
    double elapsed = watch.seconds();

    std::lock_guard<std::mutex> lock(mu_);
    ++sparse_stats_.encodes;
    sparse_stats_.encode_seconds += elapsed;
    if (sparse_entries_.size() >= kMaxEntries)
        sparse_entries_.clear();
    sparse_entries_[key] = SparseEntry{fp, plan};
    return plan;
}

void
PackedWeightCache::invalidate(const float *w)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (std::get<0>(it->first) == w)
            it = entries_.erase(it);
        else
            ++it;
    }
    for (auto it = sparse_entries_.begin();
         it != sparse_entries_.end();) {
        if (std::get<0>(it->first) == w)
            it = sparse_entries_.erase(it);
        else
            ++it;
    }
}

void
PackedWeightCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    sparse_entries_.clear();
}

std::size_t
PackedWeightCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::size_t
PackedWeightCache::sparseSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sparse_entries_.size();
}

PackedWeightCache::SparseStats
PackedWeightCache::sparseStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sparse_stats_;
}

void
PackedWeightCache::resetSparseStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    sparse_stats_ = SparseStats{};
}

} // namespace spg
