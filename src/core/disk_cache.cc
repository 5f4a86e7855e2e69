#include "core/disk_cache.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "obs/stats_registry.hh"
#include "support/failpoint.hh"
#include "support/fnv.hh"
#include "support/io_retry.hh"
#include "support/logging.hh"

namespace vvsp
{

namespace
{

/** Bumped whenever the entry layout changes; mismatches are misses.
 *  v2: measured code-size fields (CompositionResult codeWords/
 *  codeBytes/nopSlots, RegionCost codeBytes/nopSlots). */
constexpr int kSchemaVersion = 2;
constexpr const char *kMagic = "vvsp-experiment-cache";

uint64_t
fnv1a64(const std::string &s)
{
    Fnv1a64 f(Fnv1a64::kTruncatedBasis);
    f.chars(s);
    return f.value();
}

std::string
hexOfBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

/* Field writers: every value on its own line; strings are
 * length-prefixed so labels may contain anything. */

void
putStr(std::ostream &os, const std::string &s)
{
    os << s.size() << '\n' << s << '\n';
}

void
putF64(std::ostream &os, double v)
{
    os << hexOfBits(v) << '\n';
}

void
putI64(std::ostream &os, int64_t v)
{
    os << v << '\n';
}

/** Streaming reader that folds every failure into one flag. */
class Reader
{
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    bool ok() const { return ok_; }

    std::string
    str()
    {
        size_t len = static_cast<size_t>(i64());
        if (!ok_ || len > (1u << 20)) {
            ok_ = false;
            return {};
        }
        std::string s(len, '\0');
        is_.read(s.data(), static_cast<std::streamsize>(len));
        char nl = 0;
        is_.get(nl);
        if (!is_ || nl != '\n')
            ok_ = false;
        return s;
    }

    double
    f64()
    {
        std::string line = rawLine();
        if (!ok_ || line.size() != 16) {
            ok_ = false;
            return 0;
        }
        uint64_t bits = 0;
        for (char c : line) {
            int d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = c - 'a' + 10;
            else {
                ok_ = false;
                return 0;
            }
            bits = bits << 4 | static_cast<uint64_t>(d);
        }
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    int64_t
    i64()
    {
        std::string line = rawLine();
        if (!ok_ || line.empty())
            ok_ = false;
        if (!ok_)
            return 0;
        errno = 0;
        char *end = nullptr;
        long long v = std::strtoll(line.c_str(), &end, 10);
        if (errno != 0 || end != line.c_str() + line.size()) {
            ok_ = false;
            return 0;
        }
        return v;
    }

    bool b() { return i64() != 0; }

    std::string
    rawLine()
    {
        std::string line;
        if (!std::getline(is_, line))
            ok_ = false;
        return line;
    }

  private:
    std::istream &is_;
    bool ok_ = true;
};

void
serialize(std::ostream &os, const std::string &key,
          const ExperimentResult &res)
{
    os << kMagic << ' ' << kSchemaVersion << '\n';
    putStr(os, key);
    putStr(os, res.kernel);
    putStr(os, res.variant);
    putStr(os, res.model);
    putStr(os, res.note);
    putF64(os, res.cyclesPerUnit);
    putF64(os, res.cyclesPerFrame);
    putF64(os, res.unitsPerFrame);
    putF64(os, res.replication);
    putI64(os, res.checked ? 1 : 0);
    putI64(os, res.passed ? 1 : 0);
    const CompositionResult &c = res.comp;
    putF64(os, c.cyclesPerUnit);
    putI64(os, c.totalInstructions);
    putI64(os, c.hotLoopInstructions);
    putI64(os, c.maxLive);
    putI64(os, c.icacheOk ? 1 : 0);
    putI64(os, c.registersOk ? 1 : 0);
    putF64(os, c.opsPerUnit);
    putI64(os, c.codeWords);
    putI64(os, c.codeBytes);
    putI64(os, c.nopSlots);
    putI64(os, static_cast<int64_t>(c.regions.size()));
    for (const RegionCost &r : c.regions) {
        putStr(os, r.label);
        putF64(os, r.execCount);
        putI64(os, r.length);
        putI64(os, r.ii);
        putF64(os, r.cycles);
        putI64(os, r.instructions);
        putI64(os, r.maxLive);
        putI64(os, r.codeBytes);
        putI64(os, r.nopSlots);
    }
    os << "end\n";
}

/** Parse header magic/version plus the embedded key. */
bool
readEntryHeader(Reader &rd, std::string &stored_key)
{
    std::istringstream header(rd.rawLine());
    std::string magic;
    int version = -1;
    header >> magic >> version;
    if (!rd.ok() || magic != kMagic || version != kSchemaVersion)
        return false;
    stored_key = rd.str();
    return rd.ok();
}

/** Parse everything after the key (shared with fsck validation). */
DiskLoadOutcome
readEntryBody(Reader &rd, ExperimentResult &out)
{
    ExperimentResult res;
    res.kernel = rd.str();
    res.variant = rd.str();
    res.model = rd.str();
    res.note = rd.str();
    res.cyclesPerUnit = rd.f64();
    res.cyclesPerFrame = rd.f64();
    res.unitsPerFrame = rd.f64();
    res.replication = rd.f64();
    res.checked = rd.b();
    res.passed = rd.b();
    CompositionResult &c = res.comp;
    c.cyclesPerUnit = rd.f64();
    c.totalInstructions = static_cast<int>(rd.i64());
    c.hotLoopInstructions = static_cast<int>(rd.i64());
    c.maxLive = static_cast<int>(rd.i64());
    c.icacheOk = rd.b();
    c.registersOk = rd.b();
    c.opsPerUnit = rd.f64();
    c.codeWords = rd.i64();
    c.codeBytes = rd.i64();
    c.nopSlots = rd.i64();
    int64_t num_regions = rd.i64();
    if (!rd.ok() || num_regions < 0 || num_regions > (1 << 20))
        return DiskLoadOutcome::Corrupt;
    c.regions.resize(static_cast<size_t>(num_regions));
    for (RegionCost &r : c.regions) {
        r.label = rd.str();
        r.execCount = rd.f64();
        r.length = static_cast<int>(rd.i64());
        r.ii = static_cast<int>(rd.i64());
        r.cycles = rd.f64();
        r.instructions = static_cast<int>(rd.i64());
        r.maxLive = static_cast<int>(rd.i64());
        r.codeBytes = rd.i64();
        r.nopSlots = rd.i64();
    }
    if (!rd.ok() || rd.rawLine() != "end")
        return DiskLoadOutcome::Corrupt; // truncated before trailer.
    out = std::move(res);
    return DiskLoadOutcome::Hit;
}

DiskLoadOutcome
deserialize(std::istream &is, const std::string &key,
            ExperimentResult &out)
{
    Reader rd(is);
    std::string stored_key;
    if (!readEntryHeader(rd, stored_key))
        return DiskLoadOutcome::Corrupt;
    if (stored_key != key)
        return DiskLoadOutcome::Collision; // other key, same hash.
    return readEntryBody(rd, out);
}

const char *
outcomeName(DiskLoadOutcome outcome)
{
    switch (outcome) {
      case DiskLoadOutcome::Hit:
        return "hit";
      case DiskLoadOutcome::Miss:
        return "miss";
      case DiskLoadOutcome::Corrupt:
        return "corrupt";
      case DiskLoadOutcome::Collision:
        return "collision";
    }
    return "unknown";
}

uint64_t
usSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * Open a temp file for writing, retrying transient errno values.
 * `site` is a failpoint that simulates one transient open failure
 * per fire, so tests can drive both retry outcomes deterministically.
 */
bool
openTempWithRetry(std::ofstream &os, const std::string &path,
                  const char *site)
{
    IoStatus st = withRetry(defaultRetryPolicy(), [&] {
        if (failpoint::evaluate(site))
            return IoStatus::Transient;
        os.clear();
        errno = 0;
        os.open(path, std::ios::binary | std::ios::trunc);
        if (!os)
            return classifyErrno(errno != 0 ? errno : EIO);
        return IoStatus::Ok;
    });
    return st == IoStatus::Ok;
}

/**
 * Write `body` to `tmp_path` and atomically publish it at
 * `final_path`, so every fault path (transient open, write failure,
 * short write, failed rename, crash in the publish window) is
 * handled in one place. Failures bump `disk_cache/store_fail`.
 *
 * Fault semantics (failpoint sites):
 *   disk_cache/store_open        transient open; retried with backoff.
 *   disk_cache/store_enospc      write fails cleanly (disk full); tmp
 *                                removed.
 *   disk_cache/store_short_write only half the body reaches the final
 *                                file — a torn entry IS published, as
 *                                after a fsync-less power cut; readers
 *                                must classify it Corrupt and fsck
 *                                must quarantine it.
 *   disk_cache/store_rename      the publishing rename fails; tmp
 *                                removed.
 *   disk_cache/store_publish     evaluated between write and rename —
 *                                the crash-stress suite fires it with
 *                                ",crash" to die with a complete
 *                                orphan temp file.
 */
bool
publishAtomically(const std::string &body,
                  const std::string &tmp_path,
                  const std::string &final_path,
                  const obs::StatsScope &stats)
{
    auto fail = [&stats] {
        stats.bump("store_fail");
        return false;
    };
    bool torn = failpoint::evaluate("disk_cache/store_short_write");
    {
        std::ofstream os;
        if (!openTempWithRetry(os, tmp_path, "disk_cache/store_open"))
            return fail();
        if (failpoint::evaluate("disk_cache/store_enospc")) {
            std::remove(tmp_path.c_str());
            return fail();
        }
        size_t n = torn ? body.size() / 2 : body.size();
        os.write(body.data(), static_cast<std::streamsize>(n));
        os.flush();
        if (!os) {
            std::remove(tmp_path.c_str());
            return fail();
        }
    }
    // Fail action: abandon the complete temp file without renaming,
    // as a crash here would. fsck sweeps orphans.
    if (failpoint::evaluate("disk_cache/store_publish"))
        return fail();
    if (failpoint::evaluate("disk_cache/store_rename") ||
        std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        return fail();
    }
    // The torn entry is now live; report the store as failed so
    // callers don't trust it.
    return torn ? fail() : true;
}

} // anonymous namespace

DiskCache::DiskCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("disk cache: cannot create '%s': %s", dir_.c_str(),
             ec.message().c_str());
    }
}

std::string
DiskCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + hashedStem(key) + ".entry";
}

bool
DiskCache::load(const std::string &key, ExperimentResult &out) const
{
    return loadClassified(key, out) == DiskLoadOutcome::Hit;
}

DiskLoadOutcome
DiskCache::loadClassified(const std::string &key,
                          ExperimentResult &out) const
{
    // The scope check comes first so a disabled registry costs one
    // branch - no clock reads on the stats-off path.
    obs::StatsScope stats = obs::globalScope("disk_cache");
    if (!stats.enabled()) {
        if (failpoint::evaluate("disk_cache/load_io"))
            return DiskLoadOutcome::Corrupt; // simulated EIO.
        std::ifstream is(entryPath(key), std::ios::binary);
        if (!is)
            return DiskLoadOutcome::Miss;
        return deserialize(is, key, out);
    }

    const auto t0 = std::chrono::steady_clock::now();
    DiskLoadOutcome outcome;
    if (failpoint::evaluate("disk_cache/load_io")) {
        outcome = DiskLoadOutcome::Corrupt; // simulated EIO.
    } else {
        std::ifstream is(entryPath(key), std::ios::binary);
        outcome = is ? deserialize(is, key, out)
                     : DiskLoadOutcome::Miss;
    }
    const char *name = outcomeName(outcome);
    stats.bump(name);
    stats.sample(std::string(name) + "_us", usSince(t0));
    return outcome;
}

bool
DiskCache::store(const std::string &key,
                 const ExperimentResult &res) const
{
    obs::StatsScope stats = obs::globalScope("disk_cache");
    const auto t0 = stats.enabled()
                        ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};

    std::ostringstream body;
    serialize(body, key, res);

    // Unique temp name per (process, call) so concurrent writers -
    // threads or processes - never touch the same file; the rename
    // publishes a complete entry or nothing.
    static std::atomic<uint64_t> seq{0};
    std::string final_path = entryPath(key);
    std::string tmp_path = final_path + ".tmp." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(seq.fetch_add(1));
    if (!publishAtomically(body.str(), tmp_path, final_path, stats))
        return false;
    if (stats.enabled()) {
        stats.bump("store");
        stats.sample("store_us", usSince(t0));
    }
    return true;
}

bool
DiskCache::validateEntryFile(const std::string &path,
                             std::string *stored_key,
                             std::string *why)
{
    auto fail = [why](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return fail("unreadable");
    Reader rd(is);
    std::string key;
    if (!readEntryHeader(rd, key))
        return fail("bad header or schema version");
    if (stored_key)
        *stored_key = key;
    ExperimentResult scratch;
    if (readEntryBody(rd, scratch) != DiskLoadOutcome::Hit)
        return fail("truncated or malformed body");
    return true;
}

std::string
DiskCache::hashedStem(const std::string &key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return buf;
}

std::string
DiskCache::defaultDir()
{
    if (const char *env = std::getenv("VVSP_CACHE_DIR"))
        return env;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"))
        return std::string(xdg) + "/vvsp";
    if (const char *home = std::getenv("HOME"))
        return std::string(home) + "/.cache/vvsp";
    return ".vvsp-cache";
}

} // namespace vvsp
