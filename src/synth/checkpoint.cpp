#include "synth/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "elt/serialize.h"

namespace transform::synth {
namespace {

/// v2: records are per pass, with one counter/test section per target
/// axiom. v3: records lose the re-split resume point (split flag, visited
/// count, resume decision and skip) and task ids their skip, since every
/// task is one shard of a static partition. v4: target sections lose their
/// duplicate count, which the merge now computes from the tests. v5: a
/// target's programs and executions skip the candidates proven barren for
/// it (barren_axioms), so a v4 section's counts mean something else.
/// Journals of other versions are refused with a message naming the
/// version.
constexpr const char* kHeaderMagic = "transform-checkpoint v5";
constexpr const char* kHeaderPrefix = "transform-checkpoint ";

/// FNV-1a 64-bit over a byte string — the record payload checksum (and the
/// base of checkpoint_task_id). Not cryptographic; it only has to catch
/// torn writes.
std::uint64_t
fnv1a(const char* data, std::size_t size, std::uint64_t h = 1469598103934665603ULL)
{
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv1a_u64(std::uint64_t value, std::uint64_t h)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Serializes one record's payload: per target, a framed section header
/// (counters, test count, axiom name) followed by its tests, each as a
/// framed block of (ticket, size, canonical key, violated names, witness
/// XML). The witness goes through the exact-round-trip XML form
/// (elt/serialize.h), so a replayed test is byte-identical to the searched
/// one.
std::string
serialize_targets(
    const std::vector<CheckpointJournal::TargetRecord>& targets)
{
    std::ostringstream out;
    for (const CheckpointJournal::TargetRecord& target : targets) {
        out << "target " << target.programs << ' ' << target.executions
            << ' ' << target.tests.size() << ' ' << target.axiom.size()
            << '\n'
            << target.axiom << '\n';
        for (const auto& [test, ticket] : target.tests) {
            const std::string xml = elt::execution_to_xml(test.witness);
            out << "test " << ticket << ' ' << test.size << ' '
                << test.canonical_key.size() << ' ' << test.violated.size()
                << ' ' << xml.size() << '\n';
            out << test.canonical_key << '\n';
            for (const std::string& name : test.violated) {
                out << name << '\n';
            }
            out << xml;
        }
    }
    return out.str();
}

/// Parses one "test" block at \p pos, advancing it past the block.
bool
parse_test(const std::string& payload, std::size_t* pos,
           std::vector<std::pair<SynthesizedTest, std::uint64_t>>* out)
{
    const std::size_t eol = payload.find('\n', *pos);
    if (eol == std::string::npos) {
        return false;
    }
    std::istringstream head(payload.substr(*pos, eol - *pos));
    std::string tag;
    std::uint64_t ticket = 0;
    int size = 0;
    std::size_t key_len = 0, n_violated = 0, xml_len = 0;
    if (!(head >> tag >> ticket >> size >> key_len >> n_violated >>
          xml_len) ||
        tag != "test") {
        return false;
    }
    std::size_t at = eol + 1;
    if (at + key_len + 1 > payload.size()) {
        return false;
    }
    SynthesizedTest test;
    test.size = size;
    test.canonical_key = payload.substr(at, key_len);
    at += key_len;
    if (payload[at] != '\n') {
        return false;
    }
    ++at;
    for (std::size_t i = 0; i < n_violated; ++i) {
        const std::size_t name_end = payload.find('\n', at);
        if (name_end == std::string::npos) {
            return false;
        }
        test.violated.push_back(payload.substr(at, name_end - at));
        at = name_end + 1;
    }
    if (at + xml_len > payload.size()) {
        return false;
    }
    const std::optional<elt::Execution> witness =
        elt::execution_from_xml(payload.substr(at, xml_len));
    if (!witness.has_value()) {
        return false;
    }
    test.witness = *witness;
    *pos = at + xml_len;
    out->emplace_back(std::move(test), ticket);
    return true;
}

bool
parse_targets(const std::string& payload,
              std::vector<CheckpointJournal::TargetRecord>* out)
{
    std::size_t pos = 0;
    while (pos < payload.size()) {
        const std::size_t eol = payload.find('\n', pos);
        if (eol == std::string::npos) {
            return false;
        }
        std::istringstream head(payload.substr(pos, eol - pos));
        std::string tag;
        CheckpointJournal::TargetRecord target;
        std::size_t n_tests = 0, name_len = 0;
        if (!(head >> tag >> target.programs >> target.executions >>
              n_tests >> name_len) ||
            tag != "target") {
            return false;
        }
        pos = eol + 1;
        if (pos + name_len + 1 > payload.size() ||
            payload[pos + name_len] != '\n') {
            return false;
        }
        target.axiom = payload.substr(pos, name_len);
        pos += name_len + 1;
        for (std::size_t i = 0; i < n_tests; ++i) {
            if (!parse_test(payload, &pos, &target.tests)) {
                return false;
            }
        }
        out->push_back(std::move(target));
    }
    return true;
}

}  // namespace

struct CheckpointJournal::Impl {
    std::unordered_map<std::uint64_t, ShardRecord> records;
    std::mutex append_mu;
    int fd = -1;

    ~Impl()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }

    bool
    write_all(const std::string& bytes)
    {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n =
                ::write(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return false;
            }
            done += static_cast<std::size_t>(n);
        }
        return true;
    }
};

CheckpointJournal::CheckpointJournal() : impl_(std::make_unique<Impl>()) {}
CheckpointJournal::~CheckpointJournal() = default;

std::unique_ptr<CheckpointJournal>
CheckpointJournal::create(const std::string& path,
                          const std::string& fingerprint, std::string* error)
{
    // Header through a temp file + fsync + atomic rename: a crash during
    // creation leaves either no journal or a complete empty one, never a
    // half-written header a later resume would misread.
    const std::string tmp = path + ".tmp";
    {
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0) {
            *error = tmp + ": " + std::strerror(errno);
            return nullptr;
        }
        std::ostringstream header;
        header << kHeaderMagic << '\n'
               << "fingerprint " << fingerprint.size() << '\n'
               << fingerprint << '\n';
        const std::string bytes = header.str();
        std::size_t done = 0;
        bool ok = true;
        while (ok && done < bytes.size()) {
            const ssize_t n =
                ::write(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0 && errno != EINTR) {
                ok = false;
            } else if (n > 0) {
                done += static_cast<std::size_t>(n);
            }
        }
        ok = ok && ::fsync(fd) == 0;
        ::close(fd);
        if (!ok) {
            *error = tmp + ": " + std::strerror(errno);
            return nullptr;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
    journal->impl_->fd = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
    if (journal->impl_->fd < 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    return journal;
}

std::unique_ptr<CheckpointJournal>
CheckpointJournal::resume(const std::string& path,
                          const std::string& fingerprint, std::string* error)
{
    std::string contents;
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (f == nullptr) {
            *error = path + ": " + std::strerror(errno);
            return nullptr;
        }
        char buf[1 << 16];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            contents.append(buf, n);
        }
        std::fclose(f);
    }
    // Header: magic line, fingerprint length line, fingerprint bytes.
    std::size_t pos = contents.find('\n');
    const std::string magic =
        contents.substr(0, pos == std::string::npos ? 0 : pos);
    if (magic != kHeaderMagic) {
        *error = magic.rfind(kHeaderPrefix, 0) == 0
                     ? path + ": journal format " +
                           magic.substr(std::strlen(kHeaderPrefix)) +
                           " is not this build's " +
                           (kHeaderMagic + std::strlen(kHeaderPrefix)) +
                           " — start a fresh checkpoint"
                     : path + ": not a transform checkpoint journal";
        return nullptr;
    }
    ++pos;
    const std::size_t fp_eol = contents.find('\n', pos);
    if (fp_eol == std::string::npos) {
        *error = path + ": truncated journal header";
        return nullptr;
    }
    std::istringstream fp_head(contents.substr(pos, fp_eol - pos));
    std::string tag;
    std::size_t fp_len = 0;
    if (!(fp_head >> tag >> fp_len) || tag != "fingerprint" ||
        fp_eol + 1 + fp_len + 1 > contents.size() + 1) {
        *error = path + ": malformed journal header";
        return nullptr;
    }
    const std::string recorded = contents.substr(fp_eol + 1, fp_len);
    if (recorded != fingerprint) {
        *error = path +
                 ": journal was written by a different run configuration "
                 "(fingerprint mismatch) — rerun with the original flags or "
                 "start a fresh checkpoint";
        return nullptr;
    }
    pos = fp_eol + 1 + fp_len + 1;  // past the fingerprint and its newline

    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal());
    // Records: stop at the first malformed or torn one; everything after
    // it is dropped (the shards re-search) and the file is truncated back
    // so appends continue from a clean tail.
    std::size_t good_end = pos;
    while (pos < contents.size()) {
        const std::size_t eol = contents.find('\n', pos);
        if (eol == std::string::npos) {
            break;
        }
        std::istringstream head(contents.substr(pos, eol - pos));
        ShardRecord rec;
        std::size_t payload_len = 0;
        std::uint64_t checksum = 0;
        if (!(head >> tag >> rec.task_id >> payload_len >> checksum) ||
            tag != "shard") {
            break;
        }
        if (eol + 1 + payload_len > contents.size()) {
            break;  // torn tail (the classic SIGKILL-mid-append case)
        }
        const char* payload = contents.data() + eol + 1;
        if (fnv1a(payload, payload_len) != checksum) {
            break;
        }
        if (!parse_targets(std::string(payload, payload_len),
                           &rec.targets)) {
            break;
        }
        pos = eol + 1 + payload_len;
        good_end = pos;
        journal->impl_->records[rec.task_id] = std::move(rec);
    }

    const int fd = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd < 0) {
        *error = path + ": " + std::strerror(errno);
        return nullptr;
    }
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        *error = path + ": " + std::strerror(errno);
        ::close(fd);
        return nullptr;
    }
    journal->impl_->fd = fd;
    return journal;
}

const CheckpointJournal::ShardRecord*
CheckpointJournal::find(std::uint64_t task_id) const
{
    const auto it = impl_->records.find(task_id);
    return it == impl_->records.end() ? nullptr : &it->second;
}

void
CheckpointJournal::append(const ShardRecord& record)
{
    const std::string payload = serialize_targets(record.targets);
    std::ostringstream framed;
    framed << "shard " << record.task_id << ' ' << payload.size() << ' '
           << fnv1a(payload.data(), payload.size()) << '\n'
           << payload;
    const std::string bytes = framed.str();
    std::lock_guard<std::mutex> lock(impl_->append_mu);
    if (impl_->fd < 0) {
        return;
    }
    // One write + fsync per journaled shard. Only shards that visited a
    // candidate are journaled (most deep-partition shards are empty), so
    // durability costs noise next to the search. A failed write
    // degrades to a journal that simply ends earlier — resume re-searches.
    if (impl_->write_all(bytes)) {
        ::fsync(impl_->fd);
    }
}

std::size_t
CheckpointJournal::loaded() const
{
    return impl_->records.size();
}

std::uint64_t
checkpoint_task_id(const std::string& targets, const SkeletonShard& shard,
                   std::uint64_t ticket_base)
{
    std::uint64_t h = fnv1a(targets.data(), targets.size());
    h = fnv1a_u64(static_cast<std::uint64_t>(shard.options.num_events), h);
    h = fnv1a_u64(shard.prefix.size(), h);
    for (const int decision : shard.prefix) {
        h = fnv1a_u64(static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(decision)),
                      h);
    }
    return fnv1a_u64(ticket_base, h);
}

}  // namespace transform::synth
