#include "checks.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace rcnvm::lint {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool
isI(const Token &t, const char *text)
{
    return t.kind == Tok::Ident && t.text == text;
}

bool
isP(const Token &t, const char *text)
{
    return t.kind == Tok::Punct && t.text == text;
}

bool
startsWith(const std::string &s, const std::string &pre)
{
    return s.compare(0, pre.size(), pre) == 0;
}

bool
endsWith(const std::string &s, const std::string &suf)
{
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

std::string
lower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
oneOf(const std::string &s, std::initializer_list<const char *> set)
{
    return std::any_of(set.begin(), set.end(), [&](const char *w) {
        return s == w;
    });
}

/** Matching close for the paren/brace/bracket at @p i; npos when the
 *  file ends first (truncated or confused input — checks bail). */
std::size_t
matchDelim(const std::vector<Token> &t, std::size_t i,
           const char *open, const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (isP(t[j], open))
            ++depth;
        else if (isP(t[j], close) && --depth == 0)
            return j;
    }
    return npos;
}

/** Matching '>' for the '<' at @p i. Conservative: gives up at any
 *  token that cannot appear in a template-argument list, so a stray
 *  less-than comparison never swallows the rest of the file. */
std::size_t
matchAngle(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (isP(t[j], "<"))
            ++depth;
        else if (isP(t[j], ">") && --depth == 0)
            return j;
        else if (isP(t[j], ";") || isP(t[j], "{") || isP(t[j], "}"))
            return npos;
    }
    return npos;
}

// ---------------------------------------------------------------
// RL001 — deterministic iteration
// ---------------------------------------------------------------

bool
isUnorderedType(const std::string &s)
{
    return oneOf(s, {"unordered_map", "unordered_set",
                     "unordered_multimap", "unordered_multiset"});
}

/** Calls inside an iteration body that make the visit order
 *  observable: stat registration, event scheduling, and ordered
 *  container insertion. */
bool
isOrderSink(const std::string &s)
{
    return oneOf(
        s, {"schedule", "scheduleAfter", "scheduleReserved", "inject",
            "post", "push", "push_back", "push_front", "emplace",
            "emplace_back",
            "emplace_front", "insert", "add", "set", "addCounter",
            "addCounterFn", "addValue", "addSampled", "addHistogram",
            "addGauge", "addFormula"});
}

struct IterTargets {
    std::set<std::string> unorderedVars;  //!< declared names
    std::set<std::string> unorderedTypes; //!< aliases of unordered
    std::set<std::string> pointerVars;    //!< ptr-keyed map/set vars
};

/** Record the declarator name that follows a container type ending
 *  at @p after (first token past the template argument list). */
void
recordDeclaredName(const std::vector<Token> &t, std::size_t after,
                   std::set<std::string> &into)
{
    std::size_t j = after;
    while (j < t.size() &&
           (isP(t[j], "&") || isP(t[j], "*") || isI(t[j], "const")))
        ++j;
    if (j < t.size() && t[j].kind == Tok::Ident)
        into.insert(t[j].text);
}

IterTargets
collectIterTargets(const SourceFile &f)
{
    const auto &t = f.toks;
    IterTargets out;

    // Pass 1: `using X = ...unordered...;` / `typedef ... X;`
    // aliases, so later `X m;` declarations resolve.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (isI(t[i], "using") && i + 2 < t.size() &&
            t[i + 1].kind == Tok::Ident && isP(t[i + 2], "=")) {
            for (std::size_t j = i + 3;
                 j < t.size() && !isP(t[j], ";"); ++j) {
                if (t[j].kind == Tok::Ident &&
                    isUnorderedType(t[j].text)) {
                    out.unorderedTypes.insert(t[i + 1].text);
                    break;
                }
            }
        }
        if (isI(t[i], "typedef")) {
            bool unordered = false;
            std::size_t j = i + 1;
            for (; j < t.size() && !isP(t[j], ";"); ++j) {
                if (t[j].kind == Tok::Ident &&
                    isUnorderedType(t[j].text))
                    unordered = true;
            }
            if (unordered && j > i + 1 &&
                t[j - 1].kind == Tok::Ident)
                out.unorderedTypes.insert(t[j - 1].text);
        }
    }

    // Pass 2: declared entities of unordered (or aliased) type, and
    // of std::map/std::set keyed by a pointer type — their iteration
    // order is the allocator's, different on every run.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Tok::Ident)
            continue;
        const bool direct = isUnorderedType(t[i].text);
        const bool alias = out.unorderedTypes.count(t[i].text) > 0;
        if (direct || alias) {
            std::size_t after = i + 1;
            if (after < t.size() && isP(t[after], "<")) {
                std::size_t close = matchAngle(t, after);
                if (close == npos)
                    continue;
                after = close + 1;
            }
            recordDeclaredName(t, after, out.unorderedVars);
            continue;
        }
        if (oneOf(t[i].text, {"map", "set", "multimap", "multiset"}) &&
            i >= 2 && isP(t[i - 1], "::") && isI(t[i - 2], "std") &&
            i + 1 < t.size() && isP(t[i + 1], "<")) {
            std::size_t close = matchAngle(t, i + 1);
            if (close == npos)
                continue;
            // First template argument: up to the depth-1 comma.
            std::size_t argEnd = close;
            int depth = 0;
            for (std::size_t j = i + 1; j < close; ++j) {
                if (isP(t[j], "<") || isP(t[j], "(") ||
                    isP(t[j], "["))
                    ++depth;
                else if (isP(t[j], ">") || isP(t[j], ")") ||
                         isP(t[j], "]"))
                    --depth;
                else if (isP(t[j], ",") && depth == 1) {
                    argEnd = j;
                    break;
                }
            }
            if (argEnd > i + 2 && isP(t[argEnd - 1], "*"))
                recordDeclaredName(t, close + 1, out.pointerVars);
        }
    }
    return out;
}

void
checkDeterministicIteration(const SourceFile &f,
                            const IterTargets &targets,
                            std::vector<Diag> &out)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isI(t[i], "for") || !isP(t[i + 1], "("))
            continue;
        const std::size_t open = i + 1;
        const std::size_t close = matchDelim(t, open, "(", ")");
        if (close == npos)
            continue;

        // Range-for: the ':' at paren depth 1 splits decl from the
        // sequence. A classic for has none; for those, iterator
        // loops over an unordered name (m.begin()) still count.
        std::size_t colon = npos;
        int depth = 0;
        for (std::size_t j = open; j < close; ++j) {
            if (isP(t[j], "(") || isP(t[j], "[") || isP(t[j], "{"))
                ++depth;
            else if (isP(t[j], ")") || isP(t[j], "]") ||
                     isP(t[j], "}"))
                --depth;
            else if (isP(t[j], ":") && depth == 1) {
                colon = j;
                break;
            }
        }

        std::string culprit;
        const std::size_t scanFrom =
            colon == npos ? open + 1 : colon + 1;
        bool iterStyle = colon == npos;
        bool sawBegin = false;
        for (std::size_t j = scanFrom; j < close; ++j) {
            if (t[j].kind != Tok::Ident)
                continue;
            if (iterStyle &&
                (t[j].text == "begin" || t[j].text == "cbegin"))
                sawBegin = true;
            if (targets.unorderedVars.count(t[j].text) ||
                targets.unorderedTypes.count(t[j].text) ||
                isUnorderedType(t[j].text) ||
                targets.pointerVars.count(t[j].text)) {
                if (culprit.empty())
                    culprit = t[j].text;
            }
        }
        if (culprit.empty() || (iterStyle && !sawBegin))
            continue;

        // Body: braced block or single statement.
        std::size_t bodyBegin = close + 1;
        std::size_t bodyEnd;
        if (bodyBegin < t.size() && isP(t[bodyBegin], "{")) {
            bodyEnd = matchDelim(t, bodyBegin, "{", "}");
            if (bodyEnd == npos)
                continue;
        } else {
            int d = 0;
            bodyEnd = npos;
            for (std::size_t j = bodyBegin; j < t.size(); ++j) {
                if (isP(t[j], "(") || isP(t[j], "{"))
                    ++d;
                else if (isP(t[j], ")") || isP(t[j], "}"))
                    --d;
                else if (isP(t[j], ";") && d == 0) {
                    bodyEnd = j;
                    break;
                }
            }
            if (bodyEnd == npos)
                continue;
        }

        std::string sink;
        for (std::size_t j = bodyBegin; j < bodyEnd; ++j) {
            if (t[j].kind == Tok::Ident && isOrderSink(t[j].text) &&
                j + 1 < t.size() && isP(t[j + 1], "(")) {
                sink = t[j].text;
                break;
            }
        }
        if (sink.empty())
            continue;
        if (f.suppressed(t[i].line, "ordered-ok"))
            continue;
        const bool ptr = targets.pointerVars.count(culprit) > 0;
        out.push_back(Diag{
            f.path, t[i].line, t[i].col, "RL001",
            std::string(ptr ? "iteration over pointer-keyed "
                              "container '"
                            : "iteration over unordered "
                              "container '") +
                culprit + "' reaches order-sensitive '" + sink +
                "(...)'; visit order is nondeterministic — sort "
                "the keys first, use an ordered container, or "
                "annotate `// rcnvm-lint: ordered-ok` if the body "
                "is order-independent",
            "RL001|" + f.path + "|" + culprit});
    }
}

// ---------------------------------------------------------------
// RL002 — strong-type boundaries
// ---------------------------------------------------------------

bool
rawClockOrientName(const std::string &name)
{
    const std::string l = lower(name);
    if (oneOf(l, {"tick", "ticks", "cycle", "cycles", "row", "col",
                  "column", "row_addr", "col_addr", "rowaddr",
                  "coladdr", "row_address", "col_address"}))
        return true;
    return endsWith(name, "Tick") || endsWith(name, "Ticks") ||
           endsWith(name, "Cycle") || endsWith(name, "Cycles") ||
           endsWith(l, "_tick") || endsWith(l, "_ticks") ||
           endsWith(l, "_cycle") || endsWith(l, "_cycles");
}

/** The raw integer types the typed vocabulary replaced. Returns the
 *  index one past the type tokens, or npos when @p i is not one. */
std::size_t
matchRawWideInt(const std::vector<Token> &t, std::size_t i)
{
    if (isI(t[i], "uint64_t"))
        return i + 1;
    if (isI(t[i], "unsigned") && i + 1 < t.size() &&
        isI(t[i + 1], "long")) {
        return i + 2 < t.size() && isI(t[i + 2], "long") ? i + 3
                                                         : i + 2;
    }
    return npos;
}

bool
inTypedBoundaryDirs(const std::string &path)
{
    return startsWith(path, "src/mem/") ||
           startsWith(path, "src/sim/") ||
           startsWith(path, "src/cpu/");
}

void
checkRawTypeParams(const SourceFile &f, std::vector<Diag> &out)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        std::size_t typeEnd = matchRawWideInt(t, i);
        if (typeEnd == npos)
            continue;

        // Only parameter positions: the token before the type (and
        // before any const/std:: qualification) is '(' or ','.
        std::size_t before = i;
        if (before >= 2 && isP(t[before - 1], "::") &&
            isI(t[before - 2], "std"))
            before -= 2;
        if (before >= 1 && isI(t[before - 1], "const"))
            --before;
        if (before == 0 ||
            !(isP(t[before - 1], "(") || isP(t[before - 1], ",")))
            continue;

        std::size_t j = typeEnd;
        while (j < t.size() && (isP(t[j], "&") || isP(t[j], "*")))
            ++j;
        if (j >= t.size() || t[j].kind != Tok::Ident ||
            !rawClockOrientName(t[j].text))
            continue;
        if (j + 1 >= t.size() ||
            !(isP(t[j + 1], ",") || isP(t[j + 1], ")") ||
              isP(t[j + 1], "=")))
            continue;

        // Confirm a function declarator, not a call: the enclosing
        // '(' is preceded by a name (or a lambda's ']'), and its
        // matching ')' is followed by declarator syntax.
        std::size_t openAt = npos;
        int depth = 0;
        for (std::size_t k = before; k-- > 0;) {
            if (isP(t[k], ")"))
                ++depth;
            else if (isP(t[k], "(")) {
                if (depth == 0) {
                    openAt = k;
                    break;
                }
                --depth;
            }
        }
        if (openAt == npos || openAt == 0)
            continue;
        const Token &callee = t[openAt - 1];
        if (!(callee.kind == Tok::Ident || isP(callee, "]")))
            continue;
        if (callee.kind == Tok::Ident &&
            oneOf(callee.text, {"if", "for", "while", "switch",
                                "return", "sizeof", "catch"}))
            continue;
        std::size_t closeAt = matchDelim(t, openAt, "(", ")");
        if (closeAt == npos || closeAt + 1 >= t.size())
            continue;
        const Token &after = t[closeAt + 1];
        if (!(isP(after, "{") || isP(after, ";") ||
              isP(after, "-") || isP(after, ":") ||
              isI(after, "const") || isI(after, "noexcept") ||
              isI(after, "override") || isI(after, "final")))
            continue;

        if (f.suppressed(t[j].line, "raw-ok"))
            continue;
        out.push_back(Diag{
            f.path, t[j].line, t[j].col, "RL002",
            "raw wide-integer parameter '" + t[j].text +
                "' crosses a clock/orientation boundary; use the "
                "typed vocabulary (Tick, CpuCycles, MemCycles, "
                "RowAddr, ColAddr) or annotate "
                "`// rcnvm-lint: raw-ok` with a reason",
            "RL002|" + f.path + "|" + t[j].text});
    }
}

// ---------------------------------------------------------------
// RL003 — event-callback capture safety
// ---------------------------------------------------------------

bool
isScheduleEntry(const std::string &s)
{
    return oneOf(s, {"schedule", "scheduleAfter", "scheduleReserved",
                     "inject", "post"});
}

void
checkScheduledCaptures(const SourceFile &f, std::vector<Diag> &out)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || !isScheduleEntry(t[i].text) ||
            !isP(t[i + 1], "("))
            continue;
        const std::size_t open = i + 1;
        const std::size_t close = matchDelim(t, open, "(", ")");
        if (close == npos)
            continue;

        for (std::size_t b = open + 1; b < close; ++b) {
            if (!isP(t[b], "[") ||
                !(isP(t[b - 1], "(") || isP(t[b - 1], ",")))
                continue;
            if (b + 1 < close && isP(t[b + 1], "["))
                continue; // [[attribute]]
            const std::size_t e = matchDelim(t, b, "[", "]");
            if (e == npos || e > close)
                continue;

            // Split the capture list on depth-0 commas and flag any
            // by-reference entry ('&' default or '&name' forms).
            std::size_t entry = b + 1;
            int depth = 0;
            for (std::size_t j = b + 1; j <= e; ++j) {
                const bool end = j == e;
                if (!end && (isP(t[j], "(") || isP(t[j], "[") ||
                             isP(t[j], "{") || isP(t[j], "<")))
                    ++depth;
                else if (!end &&
                         (isP(t[j], ")") || isP(t[j], "]") ||
                          isP(t[j], "}") || isP(t[j], ">")))
                    --depth;
                if (!end && !(isP(t[j], ",") && depth == 0))
                    continue;
                if (entry < j && isP(t[entry], "&")) {
                    std::string what =
                        entry + 1 < j &&
                                t[entry + 1].kind == Tok::Ident
                            ? t[entry + 1].text
                            : std::string("&");
                    if (!f.suppressed(t[b].line, "capture-ok")) {
                        out.push_back(Diag{
                            f.path, t[b].line, t[b].col, "RL003",
                            "lambda scheduled via '" + t[i].text +
                                "' captures " +
                                (what == "&"
                                     ? std::string(
                                           "by reference by "
                                           "default")
                                     : "'" + what +
                                           "' by reference") +
                                "; the event outlives this scope "
                                "on the slab queue — capture by "
                                "value/move or annotate "
                                "`// rcnvm-lint: capture-ok` with "
                                "a lifetime argument",
                            "RL003|" + f.path + "|" + what});
                    }
                }
                entry = j + 1;
            }
            b = e; // continue past this lambda's capture list
        }
    }
}

// ---------------------------------------------------------------
// RL004 — strict parsing
// ---------------------------------------------------------------

bool
isRawParseFn(const std::string &s)
{
    return oneOf(s, {"strtoull", "strtoul", "strtol", "strtoll",
                     "strtoumax", "strtoimax", "atoi", "atol",
                     "atoll", "stoi", "stol", "stoll", "stoul",
                     "stoull", "sscanf"});
}

void
checkRawParse(const SourceFile &f, std::vector<Diag> &out)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || !isRawParseFn(t[i].text) ||
            !isP(t[i + 1], "("))
            continue;
        if (f.suppressed(t[i].line, "parse-ok"))
            continue;
        out.push_back(Diag{
            f.path, t[i].line, t[i].col, "RL004",
            "direct '" + t[i].text +
                "(...)' outside src/util silently accepts "
                "malformed input; route through util::parseUint64 "
                "/ util::envUint64 (or annotate "
                "`// rcnvm-lint: parse-ok`)",
            "RL004|" + f.path + "|" + t[i].text});
    }
}

// ---------------------------------------------------------------
// RL005 — stat-name hygiene helpers
// ---------------------------------------------------------------

bool
isRegisterFn(const std::string &s)
{
    return oneOf(s, {"set", "add", "addCounter", "addCounterFn",
                     "addValue", "addSampled", "addHistogram",
                     "addGauge", "addFormula"});
}

bool
isDottedName(const std::string &s)
{
    bool dot = false, prevDot = true; // leading dot illegal
    for (char c : s) {
        if (c == '.') {
            if (prevDot)
                return false;
            dot = true;
            prevDot = true;
        } else if (std::isalnum(static_cast<unsigned char>(c)) ||
                   c == '_') {
            prevDot = false;
        } else {
            return false;
        }
    }
    return dot && !prevDot;
}

void
expandBraces(const std::string &token, std::vector<std::string> &out)
{
    const std::size_t lb = token.find('{');
    if (lb == std::string::npos) {
        out.push_back(token);
        return;
    }
    const std::size_t rb = token.find('}', lb);
    if (rb == std::string::npos) {
        out.push_back(token);
        return;
    }
    const std::string head = token.substr(0, lb);
    const std::string tail = token.substr(rb + 1);
    std::string alts = token.substr(lb + 1, rb - lb - 1);
    std::size_t pos = 0;
    while (true) {
        std::size_t comma = alts.find(',', pos);
        std::string alt = alts.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::size_t a = alt.find_first_not_of(" \t");
        const std::size_t b = alt.find_last_not_of(" \t");
        alt = a == std::string::npos
                  ? std::string()
                  : alt.substr(a, b - a + 1);
        expandBraces(head + alt + tail, out);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
}

/** Literal registrations in one file (also used for the local-name
 *  exemption in bench/tests: a registry-mechanics test may consume
 *  names it registered itself). */
void
scanRegistrations(const SourceFile &f, std::set<std::string> *names,
                  std::set<std::string> *prefixes,
                  std::set<std::string> *suffixes)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || !isRegisterFn(t[i].text) ||
            !isP(t[i + 1], "("))
            continue;
        const Token &arg = t[i + 2];
        if (arg.kind == Tok::Str && i + 3 < t.size()) {
            if (isP(t[i + 3], ",") || isP(t[i + 3], ")")) {
                if (names)
                    names->insert(arg.text);
            } else if (isP(t[i + 3], "+")) {
                if (prefixes)
                    prefixes->insert(arg.text);
            }
        } else if (arg.kind == Tok::Ident && i + 5 < t.size() &&
                   isP(t[i + 3], "+") &&
                   t[i + 4].kind == Tok::Str &&
                   (isP(t[i + 5], ",") || isP(t[i + 5], ")"))) {
            if (suffixes)
                suffixes->insert(t[i + 4].text);
        }
    }
}

void
scanLookups(const SourceFile &f, bool widerSrcSet,
            const std::set<std::string> &localNames,
            std::map<std::string,
                     std::vector<std::pair<std::string, int>>> &out)
{
    const auto &t = f.toks;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind != Tok::Ident || !isP(t[i + 1], "(") ||
            t[i + 2].kind != Tok::Str ||
            !(isP(t[i + 3], ",") || isP(t[i + 3], ")")))
            continue;
        const std::string &fn = t[i].text;
        const bool hit =
            oneOf(fn, {"get", "at", "counter"}) ||
            (widerSrcSet &&
             oneOf(fn, {"sampled", "histogram", "value"}));
        if (!hit)
            continue;
        const std::string &name = t[i + 2].text;
        bool local = localNames.count(name) > 0;
        for (auto it = localNames.begin();
             !local && it != localNames.end(); ++it)
            local = startsWith(name, *it + ".");
        if (local)
            continue;
        out[name].emplace_back(f.path, t[i + 2].line);
    }
}

} // namespace

void
checkFile(const SourceFile &f, std::vector<Diag> &out)
{
    const IterTargets targets = collectIterTargets(f);
    checkDeterministicIteration(f, targets, out);
    if (inTypedBoundaryDirs(f.path))
        checkRawTypeParams(f, out);
    checkScheduledCaptures(f, out);
    if (!startsWith(f.path, "src/util/"))
        checkRawParse(f, out);
}

void
StatNameCheck::addSrcFile(const SourceFile &f)
{
    scanRegistrations(f, &names_, &prefixes_, &suffixes_);
    std::map<std::string, std::vector<std::pair<std::string, int>>>
        found;
    scanLookups(f, /*widerSrcSet=*/true, {}, found);
    for (auto &[name, sites] : found) {
        for (auto &[path, line] : sites)
            consumed_[name].push_back(Site{path, line});
    }
}

void
StatNameCheck::addConsumerFile(const SourceFile &f)
{
    std::set<std::string> local;
    scanRegistrations(f, &local, nullptr, nullptr);
    std::map<std::string, std::vector<std::pair<std::string, int>>>
        found;
    scanLookups(f, /*widerSrcSet=*/false, local, found);
    for (auto &[name, sites] : found) {
        for (auto &[path, line] : sites)
            consumed_[name].push_back(Site{path, line});
    }
}

void
StatNameCheck::addDesignDoc(const std::string &text)
{
    // The §4c statistics table: every backticked dotted name in a
    // table row must resolve (brace alternation expanded, <i>
    // placeholders skipped), or the documentation has rotted.
    std::size_t start = text.find("\n## 4c.");
    if (start == std::string::npos)
        return;
    ++start;
    std::size_t end = text.find("\n## ", start + 1);
    if (end == std::string::npos)
        end = text.size();

    int line = 1 + static_cast<int>(
                       std::count(text.begin(),
                                  text.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          start),
                                  '\n'));
    std::size_t pos = start;
    while (pos < end) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos || eol > end)
            eol = end;
        const std::string row = text.substr(pos, eol - pos);
        const std::size_t first = row.find_first_not_of(" \t");
        if (first != std::string::npos && row[first] == '|') {
            std::size_t tick = row.find('`');
            while (tick != std::string::npos) {
                std::size_t closeTick = row.find('`', tick + 1);
                if (closeTick == std::string::npos)
                    break;
                const std::string token =
                    row.substr(tick + 1, closeTick - tick - 1);
                if (token.find('<') == std::string::npos &&
                    !token.empty() && token[0] != '.') {
                    std::vector<std::string> expanded;
                    expandBraces(token, expanded);
                    for (const auto &name : expanded) {
                        if (isDottedName(name))
                            consumed_[name].push_back(
                                Site{"DESIGN.md", line});
                    }
                }
                tick = row.find('`', closeTick + 1);
            }
        }
        pos = eol + 1;
        ++line;
    }
}

void
StatNameCheck::check(std::vector<Diag> &out) const
{
    for (const auto &[name, sites] : consumed_) {
        if (!isDottedName(name))
            continue;
        bool ok = names_.count(name) > 0;
        for (auto it = names_.begin(); !ok && it != names_.end();
             ++it) {
            // Sampled/histogram snapshot fan-out sub-entries.
            if (startsWith(name, *it + "."))
                ok = true;
            // base + "Suffix" family registrations.
            for (auto st = suffixes_.begin();
                 !ok && st != suffixes_.end(); ++st)
                ok = name == *it + *st;
        }
        for (auto it = prefixes_.begin();
             !ok && it != prefixes_.end(); ++it)
            ok = startsWith(name, *it);
        if (ok)
            continue;
        const Site &site = sites.front();
        std::string extra =
            sites.size() > 1
                ? " (+" + std::to_string(sites.size() - 1) +
                      " more site" +
                      (sites.size() > 2 ? "s)" : ")")
                : std::string();
        out.push_back(Diag{
            site.path, site.line, 1, "RL005",
            "unknown stat '" + name +
                "' is consumed but never registered under src/" +
                extra,
            "RL005|stat|" + name});
    }
}

} // namespace rcnvm::lint
