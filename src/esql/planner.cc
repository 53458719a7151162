#include "esql/planner.h"

#include <algorithm>
#include <utility>

#include "engine/blocking_operators.h"
#include "esql/parser.h"
#include "server/query_runtime.h"
#include "server/shared/shared_query.h"

namespace dbs3 {

namespace {

/// Where a query's plan phases execute: its QueryEnv on the shared runtime
/// (scheduler feedback, pooled workers, quota, cancellation).
struct EsqlExecContext {
  QueryEnv* env = nullptr;
  /// Every non-final phase's execution, in order (becomes
  /// QueryResult::phases).
  std::vector<ExecutionResult> phase_execs;
};

/// Provenance of one column of the working schema (for name resolution
/// across joins, where duplicate bare names may exist).
struct Binding {
  std::string relation;
  std::string column;
};

/// The plan under construction plus everything needed to extend it.
struct PipelineState {
  Plan plan;
  int tail = -1;  ///< Last node id.
  size_t instances = 0;
  Schema schema;
  std::vector<Binding> bindings;
  std::string description;

  /// Relations materialized for this query (repartition temporaries); must
  /// outlive execution.
  std::vector<std::unique_ptr<Relation>> temps;
};

Result<size_t> ResolveBinding(const std::vector<Binding>& bindings,
                              const ColumnRef& ref) {
  int found = -1;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].column != ref.column) continue;
    if (!ref.relation.empty() && bindings[i].relation != ref.relation) {
      continue;
    }
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column '" + ref.ToString() +
                                     "' (qualify it with the relation name)");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("unknown column '" + ref.ToString() + "'");
  }
  return static_cast<size_t>(found);
}

std::vector<Binding> BindingsOf(const Relation& rel) {
  std::vector<Binding> out;
  out.reserve(rel.schema().num_columns());
  for (const Column& c : rel.schema().columns()) {
    out.push_back({rel.name(), c.name});
  }
  return out;
}

/// The bindings of the listed base columns of `rel`, in list order.
std::vector<Binding> BindingsOf(const Relation& rel,
                                const std::vector<size_t>& columns) {
  std::vector<Binding> out;
  out.reserve(columns.size());
  for (size_t c : columns) {
    out.push_back({rel.name(), rel.schema().column(c).name});
  }
  return out;
}

/// The schema of the listed base columns of `rel`, in list order.
Schema SchemaOf(const Relation& rel, const std::vector<size_t>& columns) {
  std::vector<Column> out;
  out.reserve(columns.size());
  for (size_t c : columns) out.push_back(rel.schema().column(c));
  return Schema(std::move(out));
}

/// Position of base column `column` in the ascending pruned list `columns`
/// (the column must have been kept).
size_t PrunedIndex(const std::vector<size_t>& columns, size_t column) {
  return static_cast<size_t>(
      std::lower_bound(columns.begin(), columns.end(), column) -
      columns.begin());
}

/// The physical-plan tag of a pruned scan: "" for the whole row, else
/// "[k of n cols]".
std::string PruneTag(const std::vector<size_t>& columns,
                     const Relation& rel) {
  const size_t width = rel.schema().num_columns();
  if (columns.size() == width) return "";
  return "[" + std::to_string(columns.size()) + " of " +
         std::to_string(width) + " cols]";
}

bool IsStar(const EsqlQuery& query) {
  return query.items.size() == 1 &&
         query.items[0].kind == SelectItem::Kind::kStar;
}

/// Column pruning: for each base relation of the chain, the base columns
/// (ascending) the query reads after that relation's scan — the select
/// items, aggregate arguments, JOIN ON sides, GROUP BY and ORDER BY. WHERE
/// conjuncts are not among them: each runs inside its relation's scan. A
/// `*` keeps every column. A reference marks the column in every relation
/// it could resolve to, so an ambiguous name stays ambiguous downstream and
/// resolution reports exactly what it would over whole rows.
std::vector<std::vector<size_t>> ColumnsRead(
    const EsqlQuery& query, const std::vector<Relation*>& rels) {
  std::vector<std::vector<bool>> keep(rels.size());
  for (size_t i = 0; i < rels.size(); ++i) {
    keep[i].assign(rels[i]->schema().num_columns(), IsStar(query));
  }
  auto mark = [&](const ColumnRef& ref) {
    for (size_t i = 0; i < rels.size(); ++i) {
      if (!ref.relation.empty() && ref.relation != rels[i]->name()) continue;
      const Result<size_t> col = rels[i]->schema().IndexOf(ref.column);
      if (col.ok()) keep[i][col.value()] = true;
    }
  };
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kColumn ||
        (item.kind == SelectItem::Kind::kAggregate && !item.count_star)) {
      mark(item.column);
    }
  }
  for (const EsqlQuery::JoinClause& jc : query.joins) {
    mark(jc.left);
    mark(jc.right);
  }
  if (query.group_by.has_value()) mark(*query.group_by);
  if (query.order_by.has_value()) mark(query.order_by->column);

  std::vector<std::vector<size_t>> out(rels.size());
  for (size_t i = 0; i < rels.size(); ++i) {
    for (size_t c = 0; c < keep[i].size(); ++c) {
      if (keep[i][c]) out[i].push_back(c);
    }
  }
  return out;
}

TuplePredicate PredicateFor(size_t column, Comparison::Op op, Value literal) {
  return [column, op, literal = std::move(literal)](const Tuple& t) {
    const Value& v = t.at(column);
    switch (op) {
      case Comparison::Op::kEq:
        return v == literal;
      case Comparison::Op::kNe:
        return v != literal;
      case Comparison::Op::kLt:
        return v < literal;
      case Comparison::Op::kLe:
        return v < literal || v == literal;
      case Comparison::Op::kGt:
        return literal < v;
      case Comparison::Op::kGe:
        return literal < v || v == literal;
    }
    return false;
  };
}

double SelectivityGuess(Comparison::Op op) {
  switch (op) {
    case Comparison::Op::kEq:
      return 0.1;
    case Comparison::Op::kNe:
      return 0.9;
    default:
      return 0.3;
  }
}

/// Lowers one comparison to the vector IR when its shape is one the batch
/// kernels understand AND the column's declared type matches the literal.
/// The IR's leaves are typed and self-contained; the schema gate is what
/// keeps them equivalent to PredicateFor's Value-order semantics (Value's
/// total order ranks every string above every int, so e.g. `c > 3` on a
/// string value is true under PredicateFor but inexpressible as an int
/// range — such a comparison is only lowered when the column is declared
/// kInt64 and thus never holds strings).
std::optional<PredExpr> LowerComparison(size_t column, Comparison::Op op,
                                        const Value& literal,
                                        ValueType column_type) {
  const uint32_t col = static_cast<uint32_t>(column);
  if (literal.is_int() && column_type == ValueType::kInt64) {
    const int64_t v = literal.AsInt();
    switch (op) {
      case Comparison::Op::kEq:
        return PredExpr::IntEquals(col, v);
      case Comparison::Op::kNe:
        return PredExpr::IntNotEquals(col, v);
      case Comparison::Op::kLt:
        return PredExpr::IntLess(col, v);
      case Comparison::Op::kLe:
        return PredExpr::IntLessEq(col, v);
      case Comparison::Op::kGt:
        return PredExpr::IntGreater(col, v);
      case Comparison::Op::kGe:
        return PredExpr::IntGreaterEq(col, v);
    }
    return std::nullopt;
  }
  if (!literal.is_int() && column_type == ValueType::kString) {
    switch (op) {
      case Comparison::Op::kEq:
        return PredExpr::StringEquals(col, literal.AsString());
      case Comparison::Op::kNe:
        return PredExpr::StringNotEquals(col, literal.AsString());
      default:
        break;  // No string range leaves.
    }
  }
  return std::nullopt;
}

/// AND-combines comparisons resolved against `bindings` into one predicate
/// (MatchAll when empty) and multiplies their selectivity guesses. When
/// every conjunct lowers to the vector IR (typed against `schema`), the
/// result is vectorizable; otherwise the whole conjunction stays on the
/// generic row path.
Result<std::pair<Predicate, double>> CombinePredicates(
    const std::vector<Binding>& bindings, const Schema& schema,
    const std::vector<Comparison>& comparisons) {
  if (comparisons.empty()) {
    return std::make_pair(MatchAll(), 1.0);
  }
  double selectivity = 1.0;
  std::vector<size_t> cols;
  std::vector<PredExpr> lowered;
  bool lowerable = true;
  for (const Comparison& cmp : comparisons) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(bindings, cmp.column));
    cols.push_back(col);
    selectivity *= SelectivityGuess(cmp.op);
    if (lowerable) {
      std::optional<PredExpr> expr = LowerComparison(
          col, cmp.op, cmp.literal, schema.column(col).type);
      if (expr.has_value()) {
        lowered.push_back(std::move(*expr));
      } else {
        lowerable = false;
      }
    }
  }
  if (lowerable) {
    return std::make_pair(Predicate(PredExpr::And(std::move(lowered))),
                          selectivity);
  }
  std::vector<TuplePredicate> preds;
  for (size_t i = 0; i < comparisons.size(); ++i) {
    preds.push_back(
        PredicateFor(cols[i], comparisons[i].op, comparisons[i].literal));
  }
  TuplePredicate combined = [preds = std::move(preds)](const Tuple& t) {
    for (const TuplePredicate& p : preds) {
      if (!p(t)) return false;
    }
    return true;
  };
  return std::make_pair(Predicate(std::move(combined)), selectivity);
}

/// Materializes a repartition of `rel` on base column `column`,
/// hash-partitioned with the same degree — the subquery boundary of the
/// general join case. The temporary holds only the base `columns`
/// (ascending, `column` among them), partitioned on `column`'s position.
Result<std::unique_ptr<Relation>> MaterializeRepartition(
    const Relation& rel, size_t column, const std::vector<size_t>& columns,
    Predicate predicate, double selectivity, const EsqlOptions& options,
    EsqlExecContext& ctx) {
  const size_t temp_column = PrunedIndex(columns, column);
  auto temp = std::make_unique<Relation>(
      rel.name() + "_repart", SchemaOf(rel, columns), temp_column,
      Partitioner(PartitionKind::kHash, rel.degree()));
  Plan plan;
  const size_t filter = plan.AddNode(
      "repartition-scan", ActivationMode::kTriggered, rel.degree(),
      std::make_unique<FilterLogic>(&rel, std::move(predicate), selectivity,
                                    columns));
  const size_t store =
      plan.AddNode("store", ActivationMode::kPipelined, rel.degree(),
                   std::make_unique<StoreLogic>(temp.get()));
  DBS3_RETURN_IF_ERROR(
      plan.ConnectByColumn(filter, store, temp_column, temp->partitioner()));
  DBS3_ASSIGN_OR_RETURN(
      PhaseOutcome out,
      ctx.env->Run(plan, options.cost_model, options.schedule));
  ctx.phase_execs.push_back(std::move(out.execution));
  return temp;
}

/// Strips the repartition suffix so qualified references keep working.
std::string OriginalName(const Relation& rel) {
  const std::string& name = rel.name();
  constexpr const char* kSuffix = "_repart";
  constexpr size_t kSuffixLen = 7;
  if (name.size() > kSuffixLen &&
      name.substr(name.size() - kSuffixLen) == kSuffix) {
    return name.substr(0, name.size() - kSuffixLen);
  }
  return name;
}

/// Builds the scan/join stage of the pipeline into `state`: a left-deep
/// chain of pipelined joins, with the paper's IdealJoin shortcut for a
/// single co-partitioned join and repartition materializations (subquery
/// boundaries) for misaligned inners.
Status BuildSource(Database& db, const EsqlQuery& query,
                   const EsqlOptions& options, EsqlExecContext& ctx,
                   PipelineState* state, size_t* phases) {
  // Resolve the relation chain.
  std::vector<Relation*> rels;
  DBS3_ASSIGN_OR_RETURN(Relation * from_rel, db.relation(query.from));
  rels.push_back(from_rel);
  for (const EsqlQuery::JoinClause& jc : query.joins) {
    DBS3_ASSIGN_OR_RETURN(Relation * r, db.relation(jc.relation));
    rels.push_back(r);
  }

  // Each WHERE conjunct names exactly one base relation: resolve it over
  // every relation's columns (an unknown or ambiguous column fails here,
  // before any phase runs). Every conjunct is then pushed into its
  // relation's scan or repartition scan below.
  std::vector<std::vector<Comparison>> rel_preds(rels.size());
  {
    std::vector<Binding> all;
    std::vector<size_t> owner_of;
    for (size_t i = 0; i < rels.size(); ++i) {
      for (Binding& b : BindingsOf(*rels[i])) {
        all.push_back(std::move(b));
        owner_of.push_back(i);
      }
    }
    for (const Comparison& cmp : query.where) {
      DBS3_ASSIGN_OR_RETURN(const size_t col,
                            ResolveBinding(all, cmp.column));
      rel_preds[owner_of[col]].push_back(cmp);
    }
  }

  // Column pruning: each scan emits only the columns read after it.
  const std::vector<std::vector<size_t>> read = ColumnsRead(query, rels);

  if (query.joins.empty()) {
    DBS3_ASSIGN_OR_RETURN(auto pred,
                          CombinePredicates(BindingsOf(*from_rel),
                                            from_rel->schema(),
                                            rel_preds[0]));
    state->tail = static_cast<int>(state->plan.AddNode(
        "scan(" + from_rel->name() + ")", ActivationMode::kTriggered,
        from_rel->degree(),
        std::make_unique<FilterLogic>(from_rel, std::move(pred.first),
                                      pred.second, read[0])));
    state->instances = from_rel->degree();
    state->schema = SchemaOf(*from_rel, read[0]);
    state->bindings = BindingsOf(*from_rel, read[0]);
    state->description =
        "scan(" + from_rel->name() + ")" + PruneTag(read[0], *from_rel);
    return Status::OK();
  }

  // Resolve the first join's sides against the two base relations.
  auto side_of = [](const ColumnRef& ref, const Relation& a,
                    const Relation& b) -> Result<int> {
    const bool in_a = (ref.relation.empty() || ref.relation == a.name()) &&
                      a.schema().IndexOf(ref.column).ok();
    const bool in_b = (ref.relation.empty() || ref.relation == b.name()) &&
                      b.schema().IndexOf(ref.column).ok();
    if (in_a && in_b) {
      return Status::InvalidArgument("ambiguous join column '" +
                                     ref.ToString() + "'");
    }
    if (in_a) return 0;
    if (in_b) return 1;
    return Status::NotFound("unknown join column '" + ref.ToString() + "'");
  };
  {
    const EsqlQuery::JoinClause& jc = query.joins[0];
    DBS3_ASSIGN_OR_RETURN(const int ls, side_of(jc.left, *rels[0], *rels[1]));
    DBS3_ASSIGN_OR_RETURN(const int rs,
                          side_of(jc.right, *rels[0], *rels[1]));
    if (ls == rs) {
      return Status::InvalidArgument(
          "join condition must reference both relations");
    }
    const ColumnRef& left_ref = ls == 0 ? jc.left : jc.right;
    const ColumnRef& right_ref = ls == 0 ? jc.right : jc.left;
    DBS3_ASSIGN_OR_RETURN(const size_t left_col,
                          rels[0]->schema().IndexOf(left_ref.column));
    DBS3_ASSIGN_OR_RETURN(const size_t right_col,
                          rels[1]->schema().IndexOf(right_ref.column));

    const bool copartitioned =
        rels[0]->partitioner() == rels[1]->partitioner() &&
        rels[0]->partition_column() == left_col &&
        rels[1]->partition_column() == right_col && rel_preds[0].empty() &&
        rel_preds[1].empty();
    if (copartitioned && query.joins.size() == 1) {
      // IdealJoin (Figure 10): one triggered instance per fragment pair.
      // Its output is the whole concatenated row (not pruned).
      state->tail = static_cast<int>(state->plan.AddNode(
          "ideal-join", ActivationMode::kTriggered, rels[0]->degree(),
          std::make_unique<TriggeredJoinLogic>(rels[0], left_col, rels[1],
                                               right_col, options.algorithm)));
      state->instances = rels[0]->degree();
      state->schema =
          Schema::Concat(rels[0]->schema(), rels[1]->schema());
      state->bindings = BindingsOf(*rels[0]);
      for (const Binding& b : BindingsOf(*rels[1])) {
        state->bindings.push_back(b);
      }
      state->description = "IdealJoin(" + rels[0]->name() + ", " +
                           rels[1]->name() + ")";
      return Status::OK();
    }

    // Orient the first join: prefer the side partitioned on its join
    // attribute (and free of pushdown predicates) as the inner.
    size_t probe_idx = 0, inner_idx = 1;
    size_t probe_col = left_col, inner_col = right_col;
    const bool right_inner_ok =
        rels[1]->partition_column() == right_col && rel_preds[1].empty();
    const bool left_inner_ok =
        rels[0]->partition_column() == left_col && rel_preds[0].empty();
    if (!right_inner_ok && left_inner_ok && query.joins.size() == 1) {
      std::swap(probe_idx, inner_idx);
      std::swap(probe_col, inner_col);
    }

    // Start the pipeline with the probe-side scan (pushdown predicates
    // applied in the scan — the FilterLogic generalization of Transmit).
    Relation* probe = rels[probe_idx];
    const std::vector<size_t>& probe_read = read[probe_idx];
    DBS3_ASSIGN_OR_RETURN(
        auto probe_pred,
        CombinePredicates(BindingsOf(*probe), probe->schema(),
                          rel_preds[probe_idx]));
    state->tail = static_cast<int>(state->plan.AddNode(
        "scan(" + probe->name() + ")", ActivationMode::kTriggered,
        probe->degree(),
        std::make_unique<FilterLogic>(probe, std::move(probe_pred.first),
                                      probe_pred.second, probe_read)));
    state->instances = probe->degree();
    state->schema = SchemaOf(*probe, probe_read);
    state->bindings = BindingsOf(*probe, probe_read);
    state->description =
        "scan(" + probe->name() + ")" + PruneTag(probe_read, *probe);
    probe_col = PrunedIndex(probe_read, probe_col);
    const size_t probe_width = probe_read.size();

    // Make the first join clause reference the resolved inner.
    // Fall through to the generic chain below by rotating rels so the
    // remaining chain is [inner_idx, rest...]: handled via explicit
    // ordering vector.
    std::vector<size_t> chain = {inner_idx};
    for (size_t i = 2; i < rels.size(); ++i) chain.push_back(i);
    std::vector<size_t> probe_cols = {probe_col};
    std::vector<size_t> inner_cols = {inner_col};
    // Resolve the remaining joins against the accumulated pipeline.
    for (size_t j = 1; j < query.joins.size(); ++j) {
      probe_cols.push_back(0);  // Filled below, after bindings accumulate.
      inner_cols.push_back(0);
    }

    for (size_t step = 0; step < chain.size(); ++step) {
      Relation* inner = rels[chain[step]];
      size_t this_probe_col, this_inner_col;
      if (step == 0) {
        this_probe_col = probe_cols[0];
        this_inner_col = inner_cols[0];
      } else {
        // Resolve this join clause: one side in the pipeline bindings, the
        // other in the new relation.
        const EsqlQuery::JoinClause& clause = query.joins[step];
        auto resolve = [&](const ColumnRef& ref)
            -> Result<std::pair<bool, size_t>> {
          auto in_pipe = ResolveBinding(state->bindings, ref);
          if (!in_pipe.ok() &&
              in_pipe.status().code() == StatusCode::kInvalidArgument) {
            return in_pipe.status();  // Ambiguous within the pipeline.
          }
          const bool in_rel =
              (ref.relation.empty() || ref.relation == inner->name()) &&
              inner->schema().IndexOf(ref.column).ok();
          if (in_pipe.ok() && in_rel) {
            return Status::InvalidArgument("ambiguous join column '" +
                                           ref.ToString() + "'");
          }
          if (in_pipe.ok()) return std::make_pair(true, in_pipe.value());
          if (in_rel) {
            return std::make_pair(
                false, inner->schema().IndexOf(ref.column).value());
          }
          return Status::NotFound("unknown join column '" + ref.ToString() +
                                  "'");
        };
        DBS3_ASSIGN_OR_RETURN(auto a, resolve(clause.left));
        DBS3_ASSIGN_OR_RETURN(auto b, resolve(clause.right));
        if (a.first == b.first) {
          return Status::InvalidArgument(
              "join condition must reference the joined relation and the "
              "preceding pipeline");
        }
        this_probe_col = a.first ? a.second : b.second;
        this_inner_col = a.first ? b.second : a.second;
      }

      // Repartition the inner when it is not partitioned on its join
      // attribute or carries pushdown predicates (subquery boundary). The
      // temporary holds only the inner's read columns; a base inner is
      // joined whole.
      const size_t rel_index = chain[step];
      if (inner->partition_column() != this_inner_col ||
          !rel_preds[rel_index].empty()) {
        DBS3_ASSIGN_OR_RETURN(
            auto inner_pred,
            CombinePredicates(BindingsOf(*inner), inner->schema(),
                              rel_preds[rel_index]));
        DBS3_ASSIGN_OR_RETURN(
            std::unique_ptr<Relation> temp,
            MaterializeRepartition(*inner, this_inner_col, read[rel_index],
                                   std::move(inner_pred.first),
                                   inner_pred.second, options, ctx));
        state->description = "repartition(" + inner->name() + ")" +
                             PruneTag(read[rel_index], *inner) + " ; " +
                             state->description;
        this_inner_col = temp->partition_column();
        inner = temp.get();
        state->temps.push_back(std::move(temp));
        ++*phases;
      }

      // One join at any budget: whether its build indexes the inner
      // fragment in place or spills is decided at run time by the quota.
      const size_t join = state->plan.AddNode(
          "pipelined-join", ActivationMode::kPipelined, inner->degree(),
          std::make_unique<PipelinedJoinLogic>(
              inner, this_inner_col, this_probe_col, options.algorithm));
      DBS3_RETURN_IF_ERROR(state->plan.ConnectByColumn(
          static_cast<size_t>(state->tail), join, this_probe_col,
          inner->partitioner()));
      state->tail = static_cast<int>(join);
      state->instances = inner->degree();
      state->schema = Schema::Concat(state->schema, inner->schema());
      const std::string inner_name = OriginalName(*inner);
      for (const Column& c : inner->schema().columns()) {
        state->bindings.push_back({inner_name, c.name});
      }
      const std::string probe_name =
          step == 0 ? rels[probe_idx]->name() : std::string("pipeline");
      state->description += " ; AssocJoin(probe=" + probe_name +
                            ", inner=" + inner->name() + ")";
    }

    // A swapped first join produced (right, left) column order; restore the
    // SQL order (FROM relation first) with a projection. Only `*` exposes
    // that order: a select list or aggregation resolves columns by name.
    if (probe_idx == 1 && IsStar(query)) {
      const size_t n_right = probe_width;
      const size_t n_left = state->schema.num_columns() - probe_width;
      std::vector<size_t> reorder;
      for (size_t c = 0; c < n_left; ++c) reorder.push_back(n_right + c);
      for (size_t c = 0; c < n_right; ++c) reorder.push_back(c);
      std::vector<Column> columns;
      std::vector<Binding> bindings;
      for (size_t c : reorder) {
        columns.push_back(state->schema.column(c));
        bindings.push_back(state->bindings[c]);
      }
      const size_t project = state->plan.AddNode(
          "reorder", ActivationMode::kPipelined, state->instances,
          std::make_unique<ProjectLogic>(std::move(reorder)));
      DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
          static_cast<size_t>(state->tail), project));
      state->tail = static_cast<int>(project);
      state->schema = Schema(std::move(columns));
      state->bindings = std::move(bindings);
    }
  }
  return Status::OK();
}

/// Appends the aggregation stage (global or grouped).
Status BuildAggregation(const EsqlQuery& query, PipelineState* state) {
  std::vector<AggSpec> aggs;
  std::vector<std::string> agg_names;
  for (const SelectItem& item : query.items) {
    if (item.kind != SelectItem::Kind::kAggregate) continue;
    AggSpec spec;
    spec.kind = item.aggregate;
    if (!item.count_star) {
      DBS3_ASSIGN_OR_RETURN(spec.column,
                            ResolveBinding(state->bindings, item.column));
    }
    aggs.push_back(spec);
    agg_names.push_back(
        !item.alias.empty()
            ? item.alias
            : std::string(AggKindName(item.aggregate)) + "_" +
                  (item.count_star ? "all" : item.column.column));
  }
  // Validate the non-aggregate select items against GROUP BY.
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kAggregate) continue;
    if (item.kind == SelectItem::Kind::kStar ||
        !query.group_by.has_value() ||
        item.column.column != query.group_by->column) {
      return Status::InvalidArgument(
          "with aggregates, every plain select item must be the GROUP BY "
          "column");
    }
  }

  size_t group_col = 0;
  std::string group_name = "all";
  ValueType group_type = ValueType::kInt64;
  if (query.group_by.has_value()) {
    DBS3_ASSIGN_OR_RETURN(group_col,
                          ResolveBinding(state->bindings, *query.group_by));
    group_name = query.group_by->column;
    group_type = state->schema.column(group_col).type;
  } else {
    // Global aggregate: prepend a constant grouping key so every tuple
    // lands in the same group (and instance).
    // In-place map form: the constant key row is built once, and each call
    // overwrites the recycled scratch row via AssignConcat — no per-tuple
    // construction.
    const size_t map = state->plan.AddNode(
        "const-key", ActivationMode::kPipelined, state->instances,
        std::make_unique<MapLogic>([](const Tuple& t, Tuple* out) {
          static const Tuple kKey({Value(int64_t{0})});
          out->AssignConcat(kKey, t);
        }));
    DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
        static_cast<size_t>(state->tail), map));
    state->tail = static_cast<int>(map);
    std::vector<Binding> bindings = {{"", "_const"}};
    for (Binding& b : state->bindings) bindings.push_back(std::move(b));
    state->bindings = std::move(bindings);
    for (AggSpec& spec : aggs) ++spec.column;  // Shifted by the new key.
    group_col = 0;
  }

  const size_t group = state->plan.AddNode(
      "group-by", ActivationMode::kPipelined, state->instances,
      std::make_unique<GroupByLogic>(group_col, aggs));
  // Repartition on the grouping key so equal keys meet in one instance.
  DBS3_RETURN_IF_ERROR(state->plan.ConnectByColumn(
      static_cast<size_t>(state->tail), group, group_col,
      Partitioner(PartitionKind::kHash, state->instances)));
  state->tail = static_cast<int>(group);

  // The grouping key keeps its input type; aggregates are integers.
  std::vector<Column> columns = {{group_name, group_type}};
  std::vector<Binding> bindings = {{"", group_name}};
  for (const std::string& name : agg_names) {
    columns.push_back({name, ValueType::kInt64});
    bindings.push_back({"", name});
  }
  state->schema = Schema(std::move(columns));
  state->bindings = std::move(bindings);
  state->description += " ; group-by(" + group_name + ")";
  return Status::OK();
}

/// Appends the projection stage for plain (non-aggregate) select lists. A
/// projection that keeps the pruned row as it is only renames: no node.
Status BuildProjection(const EsqlQuery& query, PipelineState* state) {
  if (IsStar(query)) return Status::OK();
  std::vector<size_t> columns;
  std::vector<Column> out_columns;
  std::vector<Binding> out_bindings;
  for (const SelectItem& item : query.items) {
    DBS3_ASSIGN_OR_RETURN(const size_t col,
                          ResolveBinding(state->bindings, item.column));
    columns.push_back(col);
    const std::string name =
        !item.alias.empty() ? item.alias : item.column.column;
    out_columns.push_back({name, state->schema.column(col).type});
    out_bindings.push_back({state->bindings[col].relation, name});
  }
  if (IsIdentityProjection(columns, state->schema.num_columns())) {
    state->schema = Schema(std::move(out_columns));
    state->bindings = std::move(out_bindings);
    return Status::OK();
  }
  const size_t project = state->plan.AddNode(
      "project", ActivationMode::kPipelined, state->instances,
      std::make_unique<ProjectLogic>(std::move(columns)));
  DBS3_RETURN_IF_ERROR(state->plan.ConnectSameInstance(
      static_cast<size_t>(state->tail), project));
  state->tail = static_cast<int>(project);
  state->schema = Schema(std::move(out_columns));
  state->bindings = std::move(out_bindings);
  state->description += " ; project";
  return Status::OK();
}

/// Compiles and runs `query`, executing every phase through `ctx`.
Result<EsqlResult> ExecuteEsqlCore(Database& db, const EsqlQuery& query,
                                   const EsqlOptions& options,
                                   EsqlExecContext& ctx) {
  if (query.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  const bool has_aggregate =
      std::any_of(query.items.begin(), query.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kAggregate;
                  });
  if (query.group_by.has_value() && !has_aggregate) {
    return Status::InvalidArgument("GROUP BY requires aggregates");
  }

  PipelineState state;
  size_t phases = 1;
  DBS3_RETURN_IF_ERROR(
      BuildSource(db, query, options, ctx, &state, &phases));
  if (has_aggregate) {
    DBS3_RETURN_IF_ERROR(BuildAggregation(query, &state));
  }
  if (query.order_by.has_value()) {
    DBS3_ASSIGN_OR_RETURN(
        const size_t sort_col,
        ResolveBinding(state.bindings, query.order_by->column));
    const size_t sort = state.plan.AddNode(
        "sort", ActivationMode::kPipelined, state.instances,
        std::make_unique<SortLogic>(sort_col, query.order_by->order));
    DBS3_RETURN_IF_ERROR(state.plan.ConnectSameInstance(
        static_cast<size_t>(state.tail), sort));
    state.tail = static_cast<int>(sort);
    state.description += " ; sort";
  }
  if (!has_aggregate) {
    DBS3_RETURN_IF_ERROR(BuildProjection(query, &state));
  }

  auto result = std::make_unique<Relation>(
      options.result_name, state.schema, /*partition_column=*/0,
      Partitioner(PartitionKind::kHash, state.instances));
  const size_t store = state.plan.AddNode(
      "store", ActivationMode::kPipelined, state.instances,
      std::make_unique<StoreLogic>(result.get()));
  DBS3_RETURN_IF_ERROR(state.plan.ConnectSameInstance(
      static_cast<size_t>(state.tail), store));

  EsqlResult out;
  DBS3_ASSIGN_OR_RETURN(
      PhaseOutcome final_phase,
      ctx.env->Run(state.plan, options.cost_model, options.schedule));
  out.schedule = std::move(final_phase.schedule);
  out.execution = std::move(final_phase.execution);
  out.result = std::move(result);
  out.physical_plan = state.description + " ; store";
  out.phases = phases;
  return out;
}

/// Packages a core result as the runtime-facing QueryResult.
QueryResult ToQueryResult(EsqlResult esql,
                          std::vector<ExecutionResult> phase_execs) {
  QueryResult out;
  out.result = std::move(esql.result);
  out.execution = std::move(esql.execution);
  out.schedule = std::move(esql.schedule);
  out.detail = std::move(esql.physical_plan);
  out.phases = std::move(phase_execs);
  return out;
}

/// Whether the query's shape may ride a shared scan at all (cheap
/// pre-check before MakeSharedSpec does name resolution): scan-only — no
/// joins, aggregates, grouping or ordering — and no declared memory.
bool ShareableShape(const EsqlQuery& query, const EsqlOptions& options) {
  if (options.memory_units != 0) return false;
  if (!query.joins.empty()) return false;
  if (query.group_by.has_value() || query.order_by.has_value()) return false;
  for (const SelectItem& item : query.items) {
    if (item.kind == SelectItem::Kind::kAggregate) return false;
  }
  return !query.items.empty();
}

/// Builds the shared-scan payload for a shareable shape, mirroring the
/// solo plan exactly: CombinePredicates for the WHERE conjunction and
/// BuildProjection's naming for the result schema. Any resolution error
/// means "not shareable" — the caller falls back to the solo body, which
/// re-reports real errors through the normal path.
Result<std::shared_ptr<const SharedScanSpec>> MakeSharedSpec(
    Database& db, const EsqlQuery& query, const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(Relation * rel, db.relation(query.from));
  auto spec = std::make_shared<SharedScanSpec>();
  spec->relation = rel;

  if (IsStar(query)) {
    spec->result_schema = rel->schema();  // Empty projection = whole row.
  } else {
    const std::vector<Binding> bindings = BindingsOf(*rel);
    std::vector<Column> out_columns;
    for (const SelectItem& item : query.items) {
      if (item.kind != SelectItem::Kind::kColumn) {
        return Status::InvalidArgument("not a shareable select list");
      }
      DBS3_ASSIGN_OR_RETURN(const size_t col,
                            ResolveBinding(bindings, item.column));
      spec->projection.push_back(col);
      const std::string name =
          !item.alias.empty() ? item.alias : item.column.column;
      out_columns.push_back({name, rel->schema().column(col).type});
    }
    spec->result_schema = Schema(std::move(out_columns));
  }

  DBS3_ASSIGN_OR_RETURN(
      auto pred,
      CombinePredicates(BindingsOf(*rel), rel->schema(), query.where));
  spec->predicate = std::move(pred.first);
  spec->selectivity = pred.second;
  spec->result_name = options.result_name;
  spec->schedule = options.schedule;
  spec->cost_model = options.cost_model;
  spec->share_class = ComputeShareClass(*rel, spec->projection);
  return std::shared_ptr<const SharedScanSpec>(std::move(spec));
}

QueryHandle SubmitParsed(Database& db, EsqlQuery query,
                         const EsqlOptions& options) {
  QuerySpec spec;
  spec.priority = options.priority;
  spec.memory_units = options.memory_units;
  spec.deadline = options.deadline;
  spec.cancel = options.cancel;
  if (ShareableShape(query, options)) {
    Result<std::shared_ptr<const SharedScanSpec>> shared =
        MakeSharedSpec(db, query, options);
    if (shared.ok()) spec.shared = std::move(shared).value();
  }
  spec.body = [&db, query = std::move(query),
               options](QueryEnv& env) -> Result<QueryResult> {
    EsqlExecContext ctx;
    ctx.env = &env;
    DBS3_ASSIGN_OR_RETURN(EsqlResult esql,
                          ExecuteEsqlCore(db, query, options, ctx));
    return ToQueryResult(std::move(esql), std::move(ctx.phase_execs));
  };
  return db.Submit(std::move(spec));
}

}  // namespace

Result<EsqlResult> ExecuteEsql(Database& db, const EsqlQuery& query,
                               const EsqlOptions& options) {
  QueryHandle handle = SubmitEsql(db, query, options);
  DBS3_ASSIGN_OR_RETURN(QueryResult result, handle.Take());
  EsqlResult out;
  out.result = std::move(result.result);
  out.execution = std::move(result.execution);
  out.schedule = std::move(result.schedule);
  out.physical_plan = std::move(result.detail);
  out.phases = result.phases.size() + 1;
  return out;
}

Result<EsqlResult> ExecuteEsql(Database& db, const std::string& query,
                               const EsqlOptions& options) {
  DBS3_ASSIGN_OR_RETURN(EsqlQuery parsed, ParseEsql(query));
  return ExecuteEsql(db, parsed, options);
}

QueryHandle SubmitEsql(Database& db, const EsqlQuery& query,
                       const EsqlOptions& options) {
  return SubmitParsed(db, query, options);
}

QueryHandle SubmitEsql(Database& db, const std::string& query,
                       const EsqlOptions& options) {
  // Parse eagerly so shareable queries get their shared-scan payload
  // attached; a syntax error still surfaces through the handle like every
  // other query failure.
  Result<EsqlQuery> parsed = ParseEsql(query);
  if (parsed.ok()) {
    return SubmitParsed(db, std::move(parsed).value(), options);
  }
  QuerySpec spec;
  spec.priority = options.priority;
  spec.memory_units = options.memory_units;
  spec.deadline = options.deadline;
  spec.cancel = options.cancel;
  spec.body = [error = parsed.status()](QueryEnv&) -> Result<QueryResult> {
    return error;
  };
  return db.Submit(std::move(spec));
}

}  // namespace dbs3
