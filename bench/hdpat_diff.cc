/**
 * @file
 * hdpat_diff: divergence-localizing comparison of two hdpat-metrics
 * JSON dumps.
 *
 *   hdpat_diff [--ignore SECTION]... A.json B.json
 *
 * Both inputs go through the strict JSON reader (a truncated or
 * malformed dump fails loudly), then the two documents are walked
 * member-by-member in document order. The first divergence is named
 * by its full dotted path with both values — "counters" differ at
 * `counters.iommu.walks_completed: 23580 vs 23581`, not "files
 * differ" — so a determinism break points at the subsystem that
 * caused it instead of at a byte offset. Up to 20 divergences are
 * listed (then a count), because one upstream divergence usually
 * fans out into many downstream metrics and the *first* in document
 * order is the one worth reading.
 *
 * Exit status: 0 when the documents are semantically identical,
 * 1 on any divergence, 2 on usage errors. CI uses this to compare
 * serial and parallel sweeps instead of byte-comparing them: a
 * byte-compare says only "different"; this says *where*.
 *
 * --ignore SECTION drops a top-level section from both sides before
 * comparing (repeatable). The "profile" section holds host
 * wall-clock times that legitimately differ between runs of the
 * same spec; comparisons that enable profiling ignore it.
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_reader.hh"

using namespace hdpat;

namespace
{

/** One observed difference between the documents. */
struct Divergence
{
    std::string path;
    std::string left;
    std::string right;
};

constexpr std::size_t kMaxReported = 20;

/** Render a scalar JsonValue for the report. */
std::string
scalarText(const JsonValue &v)
{
    std::ostringstream os;
    switch (v.kind) {
    case JsonValue::Kind::Null:
        os << "null";
        break;
    case JsonValue::Kind::Bool:
        os << (v.boolean ? "true" : "false");
        break;
    case JsonValue::Kind::Number:
        os.precision(17);
        os << v.number;
        break;
    case JsonValue::Kind::String:
        os << '"' << v.str << '"';
        break;
    case JsonValue::Kind::Array:
        os << "array[" << v.elements.size() << ']';
        break;
    case JsonValue::Kind::Object:
        os << "object{" << v.members.size() << '}';
        break;
    }
    return os.str();
}

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
    case JsonValue::Kind::Null:
        return "null";
    case JsonValue::Kind::Bool:
        return "bool";
    case JsonValue::Kind::Number:
        return "number";
    case JsonValue::Kind::String:
        return "string";
    case JsonValue::Kind::Array:
        return "array";
    case JsonValue::Kind::Object:
        return "object";
    }
    return "?";
}

/**
 * Recursive structural diff. Divergences are appended in document
 * order of the left document, so the first entry is the earliest
 * diverging metric. The walk continues past a mismatch only at the
 * sibling level — a subtree that differs in kind or length is
 * reported once, not once per leaf.
 */
void
diffValue(const std::string &path, const JsonValue &a,
          const JsonValue &b, std::vector<Divergence> &out)
{
    if (a.kind != b.kind) {
        out.push_back(
            {path, kindName(a.kind) + std::string(" (") +
                       scalarText(a) + ")",
             kindName(b.kind) + std::string(" (") + scalarText(b) +
                 ")"});
        return;
    }
    switch (a.kind) {
    case JsonValue::Kind::Null:
        return;
    case JsonValue::Kind::Bool:
        if (a.boolean != b.boolean)
            out.push_back({path, scalarText(a), scalarText(b)});
        return;
    case JsonValue::Kind::Number:
        // Exact comparison on purpose: simulated quantities are
        // bit-deterministic, so any difference is a real divergence.
        if (a.number != b.number)
            out.push_back({path, scalarText(a), scalarText(b)});
        return;
    case JsonValue::Kind::String:
        if (a.str != b.str)
            out.push_back({path, scalarText(a), scalarText(b)});
        return;
    case JsonValue::Kind::Array: {
        if (a.elements.size() != b.elements.size()) {
            out.push_back({path + ".length",
                           std::to_string(a.elements.size()),
                           std::to_string(b.elements.size())});
            return;
        }
        for (std::size_t i = 0; i < a.elements.size(); ++i)
            diffValue(path + "[" + std::to_string(i) + "]",
                      a.elements[i], b.elements[i], out);
        return;
    }
    case JsonValue::Kind::Object: {
        // Left-to-right over the left document, then right-only keys;
        // key order itself is not compared (the writer's order is
        // stable anyway, and semantic equality is the contract).
        for (const auto &[key, value] : a.members) {
            const std::string child =
                path.empty() ? key : path + "." + key;
            if (const JsonValue *other = b.find(key))
                diffValue(child, value, *other, out);
            else
                out.push_back({child, scalarText(value), "(absent)"});
        }
        for (const auto &[key, value] : b.members) {
            if (!a.find(key)) {
                const std::string child =
                    path.empty() ? key : path + "." + key;
                out.push_back({child, "(absent)", scalarText(value)});
            }
        }
        return;
    }
    }
}

/** Drop top-level @p section from @p doc when present. */
void
dropSection(JsonValue &doc, const std::string &section)
{
    for (auto it = doc.members.begin(); it != doc.members.end(); ++it) {
        if (it->first == section) {
            doc.members.erase(it);
            return;
        }
    }
}

void
usage()
{
    std::cerr
        << "usage: hdpat_diff [--ignore SECTION]... A.json B.json\n"
           "Compares two hdpat-metrics JSON documents section by\n"
           "section and names the first divergent metric with both\n"
           "values. Exit 0 = identical, 1 = divergent. --ignore drops\n"
           "a top-level section (e.g. profile, whose host wall-clock\n"
           "legitimately varies) from both sides first.\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> ignored;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ignore") == 0) {
            if (i + 1 >= argc)
                usage();
            ignored.emplace_back(argv[++i]);
        } else if (argv[i][0] == '-') {
            usage();
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() != 2)
        usage();

    JsonValue a = parseJsonFileOrDie(paths[0]);
    JsonValue b = parseJsonFileOrDie(paths[1]);
    for (const std::string &section : ignored) {
        dropSection(a, section);
        dropSection(b, section);
    }

    std::vector<Divergence> divergences;
    diffValue("", a, b, divergences);

    if (divergences.empty()) {
        std::cout << "identical: " << paths[0] << " == " << paths[1];
        if (!ignored.empty()) {
            std::cout << " (ignoring";
            for (const std::string &section : ignored)
                std::cout << ' ' << section;
            std::cout << ')';
        }
        std::cout << '\n';
        return 0;
    }

    std::cout << divergences.size() << " divergence(s): " << paths[0]
              << " vs " << paths[1] << '\n';
    const std::size_t shown =
        std::min(divergences.size(), kMaxReported);
    for (std::size_t i = 0; i < shown; ++i) {
        const Divergence &d = divergences[i];
        std::cout << "  " << d.path << ": " << d.left << " vs "
                  << d.right << '\n';
    }
    if (divergences.size() > shown)
        std::cout << "  ... " << divergences.size() - shown
                  << " more\n";
    return 1;
}
